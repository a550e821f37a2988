"""Shared fixtures: tiny graphs, random-graph strategies, an independent
distance oracle used to cross-check the production code, a walk of given
toggles with each mover's costs, a step-by-step trace replay to check the
batched one against, runners for a fresh interpreter and the CLI, and a
tracemalloc peak of one call."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import gateway_games
from gateway_games import (
    ConvergedToNE,
    CycleDetected,
    DynamicsTrace,
    GameConfig,
    Graph,
    Move,
    Stalled,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    build_graph,
    evaluate_move,
    private_cost,
)
from gateway_games.game import _check_ids, _ProfileState

# The directory holding the ``gateway_games`` package this test run imported:
# ``src`` in a checkout, ``site-packages`` when installed.
PACKAGE_ROOT = Path(gateway_games.__file__).resolve().parents[1]


def run_python(*args, cwd=None) -> subprocess.CompletedProcess[str]:
    """Run a fresh ``python`` with ``args`` and capture its output.

    ``PACKAGE_ROOT`` goes first on the subprocess's ``PYTHONPATH``, ahead of
    any entries already set, so the subprocess runs the same code as the
    in-process tests even when ``PYTHONPATH`` holds a relative entry such as
    ``src`` and ``cwd`` is another directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess[str]:
    """Run ``python -m gateway_games`` with ``args``, as ``run_python`` does."""
    return run_python("-m", "gateway_games", *args, cwd=cwd)


def assert_one_error(proc) -> None:
    """Exit 2, nothing on stdout, and exactly one ``error:`` line, the last, with no traceback."""
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert [ln for ln in lines if ln.startswith("error:")] == lines[-1:]
    assert "Traceback" not in proc.stderr


@pytest.fixture
def p3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def p4() -> Graph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def p5() -> Graph:
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def c4() -> Graph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def star5() -> Graph:
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def mask_of(s: StrategyProfile) -> int:
    """The profile as the bit mask the exhaustive tables index it by."""
    return sum(1 << v for v in s.gateways)


def edge_list_text(g: Graph) -> str:
    """The plain edge-list format: ``n`` on the first line, then one ``u v`` per edge."""
    lines = [str(g.n), *(f"{u} {v}" for u, v in g.edges())]
    return "\n".join(lines) + "\n"


def random_connected_graph(rnd: random.Random, n: int, extra: int | None = None) -> Graph:
    """Random spanning tree plus a few extra edges."""
    edges = {(min(v, p), max(v, p)) for v, p in
             ((v, rnd.randrange(v)) for v in range(1, n))}
    if extra is None:
        extra = rnd.randrange(n)
    for _ in range(extra):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def deep_tree(rnd: random.Random, n: int) -> Graph:
    """Each node attaches to one of the three most recent nodes: long, thin trees."""
    return build_graph(n, [(max(0, v - 1 - rnd.randrange(3)), v) for v in range(1, n)])


def tree_from_prufer(seq: list[int], n: int) -> Graph:
    """Standard decoding; n >= 2, entries in range(n), len(seq) == n - 2."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the pool ordered so decoding is deterministic
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return build_graph(n, edges)


def hub_distances(g: Graph, gateways: frozenset[int]) -> list[list[int]]:
    """Independent oracle: 0-1 BFS on the graph plus a zero-weight hub.

    Ordinary edges weigh 1; every gateway gets a weight-0 edge to a virtual
    hub, so the hub route costs d(u, S) + d(S, v) and the BFS minimum is
    exactly the shortcut distance.
    """
    hub = g.n
    out = []
    for src in range(g.n):
        dist = [None] * (g.n + 1)
        dist[src] = 0
        dq = deque([src])
        while dq:
            x = dq.popleft()
            if x == hub:
                steps = [(s, 0) for s in gateways]
            else:
                steps = [(y, 1) for y in g.adj[x]]
                if x in gateways:
                    steps.append((hub, 0))
            for y, w in steps:
                nd = dist[x] + w
                if dist[y] is None or nd < dist[y]:
                    dist[y] = nd
                    if w == 0:
                        dq.appendleft(y)
                    else:
                        dq.append(y)
        out.append(dist[: g.n])
    return out


def oracle_private_cost(
    g: Graph, variant: Variant, alpha: Fraction, s: StrategyProfile, v: int
) -> Fraction:
    rows = hub_distances(g, s.gateways)
    terms = rows[v]
    part = max(terms) if variant is Variant.MAX else sum(terms)
    return (alpha if v in s else Fraction(0)) + part


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rnd = random.Random(seed)
    return random_connected_graph(rnd, n)


@st.composite
def twin_graphs(draw, max_n: int = 12):
    """``(graph, classes)``: a random connected quotient graph with each of its
    nodes blown up into a planted class of 1-5 twins, a clique (adjacent
    twins) or an independent set (non-adjacent ones), joined completely to the
    classes of its quotient neighbours.  Node ids are shuffled, and each
    planted class is a sorted tuple; ``twin_classes`` may merge some."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=max_n))
    while sum(sizes) > max_n:
        sizes.pop()
    cliques = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    if len(sizes) == 1:
        cliques[0] = True  # a lone independent set of two or more is disconnected
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    ids = draw(st.permutations(range(sum(sizes))))
    classes, start = [], 0
    for size in sizes:
        classes.append(tuple(sorted(ids[start : start + size])))
        start += size
    edges = [e for c, clique in zip(classes, cliques) if clique for e in itertools.combinations(c, 2)]
    for p, q in random_connected_graph(rnd, len(classes)).edges():
        edges += itertools.product(classes[p], classes[q])
    return build_graph(len(ids), edges), tuple(classes)


@st.composite
def graph_profile_pairs(draw, min_n: int = 2, max_n: int = 8):
    g = draw(connected_graphs(min_n, max_n))
    size = draw(st.integers(1, g.n))
    ids = draw(st.permutations(range(g.n)))[:size]
    return g, StrategyProfile.of(ids)


def alphas() -> st.SearchStrategy[Fraction]:
    return st.fractions(min_value=Fraction(1, 8), max_value=Fraction(40))


KNIFE = Fraction(1, 2**41)


def knife_prices(dvs) -> set[Fraction]:
    """Integers k and k +- KNIFE around every distance change in ``dvs`` (or
    KNIFE alone for k = 0), plus a huge non-dyadic price."""
    prices = {Fraction(2**70 + 1, 3)}
    for k in map(abs, dvs):
        prices |= {k + KNIFE, Fraction(k), k - KNIFE} if k >= 1 else {KNIFE}
    return prices


def oracle_move(
    g: Graph, variant: Variant, alpha: Fraction, s: StrategyProfile, v: int
) -> tuple[str, Fraction, bool]:
    """``(kind, cost delta, forbidden)`` of toggling ``v``, from the hub oracle.

    The sole gateway's close is priced against plain distances: the hub
    oracle with no gateways at all.
    """
    before = oracle_private_cost(g, variant, alpha, s, v)
    if v in s and len(s) == 1:
        row = hub_distances(g, frozenset())[v]
        after = Fraction(max(row) if variant is Variant.MAX else sum(row))
        return "close", after - before, True
    after = oracle_private_cost(g, variant, alpha, s.toggled(v), v)
    return ("close" if v in s else "open"), after - before, False


def toggle_walk(
    g: Graph, cfg: GameConfig, start: StrategyProfile, nodes
) -> list[tuple[Fraction, Fraction, Move]]:
    """Each toggle of ``nodes`` in turn from ``start``, as the mover's
    ``private_cost`` before and after it and its ``evaluate_move``, each
    against the profile the toggle is made in."""
    d = all_pairs_distances(g)
    steps = []
    for v in nodes:
        before, start = start, start.toggled(v)
        costs = private_cost(d, cfg, before, v), private_cost(d, cfg, start, v)
        steps.append((*costs, evaluate_move(d, cfg, before, v)))
    return steps


def reference_replay(g: Graph, cfg: GameConfig, trace: DynamicsTrace) -> list[StrategyProfile]:
    """``replay_trace`` one recorded move at a time: each move is checked
    against the carried state's toggle scan before the state toggles, and
    each id only when the walk reaches it."""
    d = all_pairs_distances(g)
    states = [trace.initial]
    carried = _ProfileState(d, trace.initial)
    for recorded_state, move in trace.steps:
        if recorded_state != states[-1]:
            raise ValueError("trace states out of order")
        _check_ids(g.n, (move.node,))
        fresh = carried.scan(cfg).move(move.node)
        if fresh != move or not fresh.is_improving:
            raise ValueError(f"recorded move {move} does not replay")
        states.append(recorded_state.toggled(move.node))
        carried.toggle(move.node)
    state = states[-1]
    if isinstance(trace.outcome, (ConvergedToNE, Stalled)):
        at_ne = isinstance(trace.outcome, ConvergedToNE)
        if trace.outcome.profile != state or carried.scan(cfg).improving.any() == at_ne:
            raise ValueError(f"claimed {trace.outcome} does not verify")
    if isinstance(trace.outcome, CycleDetected):
        entry, steps = trace.outcome.entry_index, len(trace.steps)
        if not 0 <= entry < steps or trace.outcome.period != steps - entry:
            raise ValueError(f"{trace.outcome} does not match a trace of {steps} steps")
        if states[entry] != state:
            raise ValueError("cycle does not close on its entry state")
    return states


def count_calls(monkeypatch, name: str, module: str = "graphs") -> list:
    """Count calls of ``gateway_games.<module>.<name>`` through every module binding it."""
    calls: list = []
    real = getattr(getattr(gateway_games, module), name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gateway_games") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def recorded_scans(monkeypatch) -> list:
    """The result of every toggle scan of a carried profile state
    (``game._ProfileState.scan``), in call order."""
    scans: list = []
    real = gateway_games.game._ProfileState.scan

    def recording(self, cfg):
        scans.append(real(self, cfg))
        return scans[-1]

    monkeypatch.setattr(gateway_games.game._ProfileState, "scan", recording)
    return scans


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
