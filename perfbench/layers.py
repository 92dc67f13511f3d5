"""Per-layer timing from the benchmark's own spans.

A traced round wraps the entry point of each layer in a timing span, in
place: every module of the program (and of this benchmark) that holds a
reference to the entry point gets the wrapper, so calls the program
makes internally are timed as well as the benchmark's own calls.  The
program itself is not changed and records nothing.

A layer's figure is its *self* time: the time inside its spans minus
the time of layer spans nested inside them on the same thread.  Self
times therefore add up without double counting; time in code that no
span covers is simply not attributed.  Each thread keeps its own span
stack, and self times add up over threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (layer, "module:attribute", optional (count name, count of a result)).
#: Layers are named after the program's modules.
ENTRY_POINTS = [
    ("sdf.repetition", "repro.sdf.repetition:repetition_vector", None),
    ("sdf.schedule", "repro.sdf.schedule:sequential_schedule", None),
    ("sdf.transform", "repro.sdf.transform:traditional_hsdf",
     ("sdf.transform.actors", lambda graph: graph.actor_count())),
    ("core.symbolic", "repro.core.symbolic:symbolic_iteration",
     ("core.symbolic.firings", lambda walk: len(walk.firing_completions))),
    ("core.realise", "repro.core.hsdf_conversion:realise_iteration_matrix", None),
    ("core.grouping", "repro.core.grouping:discover_abstraction", None),
    ("core.abstraction", "repro.core.abstraction:abstract_graph", None),
    ("core.pruning", "repro.core.pruning:prune_redundant_edges", None),
    ("core.unfolding", "repro.core.unfolding:unfold",
     ("core.unfolding.edges", lambda graph: graph.edge_count())),
    ("core.conservativity", "repro.core.conservativity:dominates", None),
    ("csdf.symbolic", "repro.csdf.analysis:csdf_symbolic_iteration", None),
    ("maxplus.karp", "repro.maxplus.spectral:critical_cycle", None),
    ("maxplus.karp", "repro.maxplus.spectral:eigenvalue", None),
    ("kernels.howard", "repro.kernels.mcm:howard_mcr_numpy", None),
    ("kernels.howard", "repro.mcm.howard:howard_mcr", None),
    ("obs.witness", "repro.obs.provenance:witness_from_ratio_cycle", None),
    ("obs.witness", "repro.obs.provenance:verify_witness", None),
    ("analysis.throughput", "repro.analysis.throughput:throughput", None),
]

LAYERS = sorted({layer for layer, _, _ in ENTRY_POINTS})
COUNTS = sorted({count[0] for _, _, count in ENTRY_POINTS if count})


class LayerClock:
    """Self time per layer and counts, summed over all threads."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, func, layer, count=None):
        clock = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack = clock._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.seconds[layer] += elapsed - nested
            if count is not None:
                with clock._lock:
                    clock.counts[count[0]] += count[1](result)
            return result

        return timed

    def snapshot(self) -> dict:
        with self._lock:
            figures = {f"{layer}_s": self.seconds.get(layer, 0.0) for layer in LAYERS}
            figures.update({name: self.counts.get(name, 0) for name in COUNTS})
        return figures


def _holders(roots):
    """Loaded modules whose source file lies under one of ``roots``."""
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path and any(Path(path).resolve().is_relative_to(r) for r in roots):
            yield module


@contextmanager
def instrumented(clock: LayerClock, roots):
    """Wrap every entry point for the duration of the block.

    ``roots`` are the directories of the program's and the benchmark's
    sources; references held by modules elsewhere are left alone.
    """
    targets = []
    for layer, target, count in ENTRY_POINTS:
        module_name, _, qualname = target.partition(":")
        targets.append((layer, importlib.import_module(module_name), qualname, count))
    # Only now: importing a target module may load further holders.
    roots = [Path(r).resolve() for r in roots]
    holders = list(_holders(roots))
    patches = []
    try:
        for layer, module, qualname, count in targets:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, clock.wrap(original, layer, count))
                continue
            original = getattr(module, attr)
            timed = clock.wrap(original, layer, count)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, name, original))
                        setattr(holder, name, timed)
        yield clock
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
