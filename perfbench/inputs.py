"""Seeded input populations.

The benchmark makes its own random graphs instead of calling the
program's test generators, so a change to those generators cannot
silently change what is measured.  The same seed always gives the same
graphs; the program only ever receives the finished graphs.
"""

from __future__ import annotations

import random

from repro.csdf.graph import CSDFGraph
from repro.graphs import TABLE1_CASES
from repro.graphs.csdf_apps import ip_frame_decoder, polyphase_cd2dat
from repro.sdf.graph import SDFGraph


def _split(rng: random.Random, total: int, parts: int) -> list:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_csdf(rng: random.Random, index: int) -> CSDFGraph:
    """A live CSDF ring of 3-6 actors with 1-4 phases each.

    Every channel moves the same number of tokens per phase cycle, split
    at random over the phases, so one iteration is one cycle of every
    actor; the closing edge carries a full cycle of tokens.
    """
    n = rng.randint(3, 6)
    names = [f"c{i}" for i in range(n)]
    rng.shuffle(names)
    phases = {a: rng.randint(1, 4) for a in names}
    per_cycle = 3 * max(phases.values())
    graph = CSDFGraph(f"csdf-{index}")
    for a in names:
        graph.add_actor(a, [rng.randint(0, 8) for _ in range(phases[a])])
        graph.add_edge(a, a, [1] * phases[a], [1] * phases[a], 1, name=f"self_{a}")
    for a, b in zip(names, names[1:] + names[:1]):
        graph.add_edge(
            a, b,
            production=_split(rng, per_cycle, phases[a]),
            consumption=_split(rng, per_cycle, phases[b]),
            tokens=per_cycle if b == names[0] else 0,
        )
    return graph


def lift_to_csdf(graph: SDFGraph) -> CSDFGraph:
    """The one-phase CSDF graph with the same actors, rates and tokens."""
    lifted = CSDFGraph(f"{graph.name}-csdf")
    for actor in graph.actors:
        lifted.add_actor(actor.name, [actor.execution_time])
    for edge in graph.edges:
        lifted.add_edge(edge.source, edge.target, [edge.production],
                        [edge.consumption], edge.tokens, name=edge.name)
    return lifted


def table1_graphs() -> list:
    """(case, graph) for the eight Table-1 applications."""
    return [(case, case.build()) for case in TABLE1_CASES]


def csdf_set(seed: int, size: int) -> list:
    """The two CSDF applications plus ``size`` seeded random CSDF graphs."""
    rng = random.Random(seed)
    return [polyphase_cd2dat(), ip_frame_decoder()] + [
        random_csdf(rng, i) for i in range(size)
    ]


