"""Shared fixtures: tiny graphs, random-graph strategies, an independent
distance oracle used to cross-check the production code, and a runner for
the CLI."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import gateway_games
from gateway_games import Graph, StrategyProfile, Variant, build_graph

# The directory holding the ``gateway_games`` package this test run imported:
# ``src`` in a checkout, ``site-packages`` when installed.
PACKAGE_ROOT = Path(gateway_games.__file__).resolve().parents[1]


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess[str]:
    """Run ``python -m gateway_games`` with ``args`` and capture its output.

    ``PACKAGE_ROOT`` goes first on the subprocess's ``PYTHONPATH``, ahead of
    any entries already set, so the CLI runs the same code as the in-process
    tests even when ``PYTHONPATH`` holds a relative entry such as ``src`` and
    ``cwd`` is another directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "gateway_games", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


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
def graph_profile_pairs(draw, min_n: int = 2, max_n: int = 8):
    g = draw(connected_graphs(min_n, max_n))
    size = draw(st.integers(1, g.n))
    ids = draw(st.permutations(range(g.n)))[:size]
    return g, StrategyProfile.of(ids)


def alphas() -> st.SearchStrategy[Fraction]:
    return st.fractions(min_value=Fraction(1, 8), max_value=Fraction(40))


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


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of the package function ``name`` through every module binding it."""
    calls: list = []
    real = getattr(gateway_games.graphs, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gateway_games") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls
