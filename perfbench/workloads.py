"""The two workloads.

Each workload builds its inputs once (set-up), then runs whole rounds of
the same operations.  A round returns the wall time of each operation,
keyed by (route, index) so the same key names the same operation in
every round; that time normalised by how fast the host ran the
calibration loop around the operation; how many operations it attempted
and how many raised; the counts its outputs give; and the answers the
checks read.  Answers must be the same in every round; ``check``
compares the answers of one round with values derived apart from the
route that produced them.
"""

from __future__ import annotations

import functools
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import inputs
from calibration import CALIBRATION_REFERENCE_S, calibration_seconds
from repro import (
    abstract_graph,
    convert_to_hsdf,
    discover_abstraction,
    dominates,
    prune_redundant_edges,
    throughput,
    unfold,
)
from repro.core.conservativity import sigma_map
from repro.csdf.analysis import csdf_throughput
from repro.csdf.conversion import csdf_to_sdf_approximation
from repro.graphs.examples import figure3_graph
from repro.graphs.synthetic import regular_prefetch, remote_memory_access


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    #: Wall time of each operation, keyed by (route, index).
    ops: dict = field(default_factory=dict)
    #: The same times in normalised seconds: scaled by the reference
    #: over the mean of the calibration times just before and just after.
    normalised: dict = field(default_factory=dict)
    #: Times of the calibration loop, one after each operation.
    calibrations: list = field(default_factory=list)
    #: Counts read from this round's outputs.
    figures: dict = field(default_factory=dict)
    #: Comparable answers (cycle times, verdicts) in input order.
    answers: list = field(default_factory=list)
    #: The raw outputs the checks need; None where an operation failed.
    outputs: dict = field(default_factory=dict)

    def attempt(self, operation):
        """Run one operation; a raise counts as failed, not as wrong."""
        self.attempted += 1
        try:
            return operation()
        except Exception:  # a failed operation is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def timed(self, route, operations):
        """Attempt each operation of a route; each is timed on its own,
        between two timed runs of the calibration loop."""
        values = []
        before = self.calibrations[-1] if self.calibrations else calibration_seconds()
        for index, operation in enumerate(operations):
            start = time.perf_counter()
            values.append(self.attempt(operation))
            elapsed = time.perf_counter() - start
            after = calibration_seconds()
            self.ops[route, index] = elapsed
            self.normalised[route, index] = (
                elapsed * 2 * CALIBRATION_REFERENCE_S / (before + after))
            self.calibrations.append(after)
            before = after
        return values


def _cycle_time(result):
    return None if result is None else result.cycle_time


class Table1:
    """The paper's experiment: the eight Table-1 graphs through the
    compact route, Algorithm 1 and the classical route, plus CSDF."""

    def __init__(self, seed: int, tiny: bool):
        cases = inputs.table1_graphs()
        if tiny:
            cases = [(c, g) for c, g in cases if c.paper_traditional <= 1000]
        self.cases = cases
        self.csdf = inputs.csdf_set(seed, 2 if tiny else 30)

    def round(self) -> Round:
        r = Round()
        graphs = [g for _, g in self.cases]
        symbolic = r.timed("symbolic", [
            functools.partial(throughput, g, method="symbolic") for g in graphs])
        compact = r.timed("convert", [
            functools.partial(convert_to_hsdf, g) for g in graphs])
        classical = r.timed("classical", [
            functools.partial(throughput, g, method="hsdf") for g in graphs])
        csdf = r.timed("csdf", [
            functools.partial(csdf_throughput, c) for c in self.csdf])
        r.figures["hsdf_actors"] = sum(h.actor_count for h in compact if h)
        r.answers = ([_cycle_time(x) for x in symbolic + classical + csdf]
                     + [h and h.actor_count for h in compact])
        r.outputs = dict(symbolic=symbolic, compact=compact,
                         classical=classical, csdf=csdf)
        return r

    @staticmethod
    def route_figures(route_seconds) -> dict:
        return {f"{route}_s": route_seconds[route]
                for route in ("symbolic", "convert", "classical", "csdf")}

    def check(self, out) -> list:
        problems = []
        for i, (case, g) in enumerate(self.cases):
            sym, h, cls = out["symbolic"][i], out["compact"][i], out["classical"][i]
            if sym is None or h is None or cls is None:
                continue
            expansion = [s for s in cls.provenance.steps
                         if s.kind == "traditional-hsdf-expansion"]
            problems += checks.check_table1(
                case.name, case.paper_traditional,
                expansion[0].after_size.get("actors") if expansion else None,
                sym.cycle_time, cls.cycle_time,
                throughput(h.graph, method="hsdf").cycle_time,
                sum(e.tokens for e in g.edges), h.actor_count, h.edge_count)
            problems += checks.check_witness(g, sym) + checks.check_witness(g, cls)
            lifted = csdf_throughput(inputs.lift_to_csdf(g)).cycle_time
            problems += checks.check_equal(
                case.name, "one-phase CSDF lift cycle time", lifted, cls.cycle_time)
        for c, result in zip(self.csdf, out["csdf"]):
            if result is not None:
                bound = throughput(csdf_to_sdf_approximation(c)).cycle_time
                problems += checks.check_csdf_bounds(
                    c, result.repetition, result.cycle_time, bound)
        return problems


class Abstraction:
    """Sections 4-5: discovery, abstraction, pruning, unfolding, the
    dominance check and the Theorem-1 bound on the Figure-1 prefetch
    family and the Figure-5 remote-memory model."""

    def __init__(self, seed: int, tiny: bool):
        prefetch = (6, 12) if tiny else (6, 12, 24, 48, 96, 192)
        checked = (8,) if tiny else (8, 64, 128)
        unchecked = (16,) if tiny else (1584,)
        self.models = (
            [("prefetch", n, regular_prefetch(n), True) for n in prefetch]
            + [("remote-memory", n, remote_memory_access(n), True) for n in checked]
            # Unfolding the 1584-block model would hold |D|·n edges.
            + [("remote-memory", n, remote_memory_access(n), False)
               for n in unchecked])

    @staticmethod
    def _reduce(g, check_dominance):
        abstraction = discover_abstraction(g)
        raw = abstract_graph(g, abstraction)
        abstract = prune_redundant_edges(raw)
        bound = abstraction.phase_count * throughput(abstract).cycle_time
        verdict = None
        if check_dominance:
            unfolded = unfold(raw, abstraction.phase_count)
            verdict = dominates(unfolded, g, sigma_map(abstraction))
        return bound, verdict

    def round(self) -> Round:
        r = Round()
        reduced = r.timed("reduce", [
            functools.partial(self._reduce, g, dominance)
            for _, _, g, dominance in self.models])
        r.answers = list(reduced)
        r.outputs = dict(reduced=reduced)
        return r

    @staticmethod
    def route_figures(route_seconds) -> dict:
        return {}

    def check(self, out) -> list:
        problems = []
        for (family, n, g, _), reduced in zip(self.models, out["reduced"]):
            if reduced is not None:
                exact = throughput(g).cycle_time
                problems += checks.check_abstraction(
                    g.name, family, n, exact, reduced[0], reduced[1])
        return problems


def warm_up():
    """Call every route once on a tiny graph.

    The first numpy-kernel call and the program's lazy imports then
    happen in set-up, where users of a long-lived process pay them once,
    not in the first timed round.
    """
    g = figure3_graph()
    for method in ("symbolic", "hsdf", "simulation"):
        throughput(g, method=method)
    convert_to_hsdf(g)
    csdf_throughput(inputs.lift_to_csdf(g))


def build(name: str, seed: int, tiny: bool):
    return {"table1": Table1, "abstraction": Abstraction}[name](seed, tiny)

