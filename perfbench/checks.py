"""Correctness checks made apart from the program.

Each check takes the program's outputs (and, where needed, the input
graph) and returns a list of problems, empty when the outputs are right.
The expected values are closed forms from the paper, size bounds from
Section 6, or a second route through the program that shares no
algorithm with the first; none is a stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

from repro.obs.provenance import WitnessError, verify_witness


def check_table1(name, paper_actors, classical_actors, symbolic_cycle_time,
                 classical_cycle_time, compact_cycle_time, tokens,
                 compact_actors, compact_edges):
    """One Table-1 graph through the compact route, Algorithm 1 and the
    classical route.

    ``classical_actors`` is the size of the classical expansion, which
    must be the paper's Σγ column; ``compact_cycle_time`` is Howard's
    cycle time of the compact HSDF graph itself; ``tokens`` is N, the
    number of initial tokens of the original graph.
    """
    problems = []
    if classical_actors != paper_actors:
        problems.append(f"{name}: classical expansion has {classical_actors} "
                        f"actors, the paper's Σγ is {paper_actors}")
    if symbolic_cycle_time != classical_cycle_time:
        problems.append(f"{name}: symbolic cycle time {symbolic_cycle_time} != "
                        f"classical {classical_cycle_time}")
    if compact_cycle_time != symbolic_cycle_time:
        problems.append(f"{name}: compact HSDF cycle time {compact_cycle_time} "
                        f"!= λ = {symbolic_cycle_time}")
    if compact_actors > tokens * (tokens + 2):
        problems.append(f"{name}: {compact_actors} compact actors exceed "
                        f"N(N+2) = {tokens * (tokens + 2)}")
    if compact_edges > tokens * (2 * tokens + 1):
        problems.append(f"{name}: {compact_edges} compact edges exceed "
                        f"N(2N+1) = {tokens * (2 * tokens + 1)}")
    return problems


def check_witness(graph, result):
    """The result carries a critical-cycle witness that re-derives its
    cycle time on ``graph``."""
    record = result.provenance
    if record is None or record.witness is None:
        return [f"{graph.name}: no witness ({getattr(record, 'witness_unavailable', None)})"]
    try:
        verify_witness(graph, record)
    except WitnessError as error:
        return [f"{graph.name}: witness rejected: {error}"]
    return []


def check_equal(name, what, value, expected):
    if value != expected:
        return [f"{name}: {what} {value} != {expected}"]
    return []


def self_loop_lower_bound(graph, firings):
    """A lower bound on the iteration period of a CSDF graph.

    ``firings`` counts each actor's firings (phase executions) per
    iteration.  An actor with a unit-rate self-loop of ``d`` tokens runs
    at most ``d`` firings at once, and its firings walk its phases in
    order, so an iteration takes at least
    (firings / phases) · Σ(phase times) / d.
    """
    bound = Fraction(0)
    for edge in graph.edges:
        if edge.source == edge.target and set(edge.production + edge.consumption) == {1}:
            times = graph.actor(edge.source).execution_times
            cycles = Fraction(firings[edge.source], len(times))
            bound = max(bound, cycles * sum(times) / edge.tokens)
    return bound


def check_csdf_bounds(graph, firings, cycle_time, approximation_cycle_time):
    """``cycle_time`` lies between the self-loop lower bound and the
    conservative aggregated-SDF upper bound."""
    lower = self_loop_lower_bound(graph, firings)
    if not lower <= cycle_time <= approximation_cycle_time:
        return [f"{graph.name}: CSDF cycle time {cycle_time} outside "
                f"[{lower}, {approximation_cycle_time}]"]
    return []


def check_abstraction(name, family, n, exact, bound, dominates):
    """The paper's closed forms and Theorem 1 for one reduced model.

    ``family`` is ``"prefetch"`` (Section 4.1: exact 5n−7, bound 5n) or
    ``"remote-memory"`` (Section 5: exact = bound = 100·n);
    ``dominates`` is the dominance verdict, ``None`` when not checked.
    """
    if family == "prefetch":
        expected_exact, expected_bound = 5 * n - 7, 5 * n
    else:
        expected_exact = expected_bound = 100 * n
    problems = check_equal(name, "exact cycle time", exact, expected_exact)
    problems += check_equal(name, "abstraction bound", bound, expected_bound)
    if not bound >= exact:
        problems.append(f"{name}: bound {bound} below exact {exact} (Theorem 1)")
    if dominates is False:
        problems.append(f"{name}: unfolded abstraction does not dominate the original")
    return problems
