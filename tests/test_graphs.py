import itertools
import math
import os
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    UNBOUNDED,
    DisconnectedGraph,
    NodeIdOutOfRange,
    SelfLoop,
    StateSpaceTooLarge,
    all_pairs_distances,
    bfs_levels,
    build_graph,
    graph_to_json,
    metrics,
    parse_graph,
)
from gateway_games import graphs
from gateway_games.graphs import _bfs_tree

from conftest import (
    connected_graphs,
    deep_tree,
    edge_list_text,
    hub_distances,
    path_graph,
    random_connected_graph,
    traced_peak,
    tree_from_prufer,
)


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 1), (1, 1)])


def test_build_graph_rejects_bad_ids():
    with pytest.raises(NodeIdOutOfRange):
        build_graph(3, [(0, 3)])
    with pytest.raises(NodeIdOutOfRange):
        build_graph(3, [(-1, 2)])


def test_build_graph_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1), (2, 3)])


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert g.edge_count() == 2
    assert g.adj[1] == (0, 2)


def test_bfs_levels_match_oracle(p5):
    d = all_pairs_distances(p5)
    for s in range(5):
        assert bfs_levels(p5, s) == tuple(int(x) for x in d.dist[s])


@pytest.mark.parametrize("source", [-1, 5])
def test_bfs_levels_rejects_out_of_range_source(p5, source):
    with pytest.raises(NodeIdOutOfRange):
        bfs_levels(p5, source)


def test_metrics_path_is_tree(p3):
    m = metrics(all_pairs_distances(p3))
    assert m.diameter == 2
    assert m.girth == UNBOUNDED
    assert math.isinf(m.girth)
    assert m.peripheral_pair == (0, 2)


def test_metrics_cycle_and_clique(c4, k4):
    assert metrics(all_pairs_distances(c4)).girth == 4
    assert metrics(all_pairs_distances(k4)).girth == 3


def test_metrics_petersen(petersen):
    m = metrics(all_pairs_distances(petersen))
    assert m.diameter == 2
    assert m.girth == 5


def test_peripheral_pair_is_lex_smallest(star5):
    m = metrics(all_pairs_distances(star5))
    assert m.peripheral_pair == (1, 2)


def test_json_round_trip(petersen):
    text = graph_to_json(petersen)
    again = parse_graph(text)
    assert again == petersen
    assert graph_to_json(again) == text


def test_edge_text_round_trip(c4):
    assert parse_graph(edge_list_text(c4)) == c4


def test_parse_graph_detects_format(p3):
    assert parse_graph(graph_to_json(p3)) == parse_graph(edge_list_text(p3))


def test_graph_json_is_canonical():
    a = build_graph(3, [(2, 1), (1, 0)])
    b = build_graph(3, [(0, 1), (1, 2)])
    assert graph_to_json(a) == graph_to_json(b)
    assert graph_to_json(a).endswith("\n")


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=60, deadline=None)
def test_distance_matrix_properties(g):
    d = all_pairs_distances(g)
    mat = d.dist
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)
    m = metrics(d)
    assert m.diameter == int(mat.max())
    u, v = m.peripheral_pair
    assert int(d.dist[u, v]) == m.diameter


def family_graph(kind: str, n: int, seed: int):
    rnd = random.Random(seed)
    if kind == "random":
        return random_connected_graph(rnd, n)
    if kind == "deep":
        return deep_tree(rnd, n)
    if n == 1:
        return build_graph(1, [])
    if kind == "path":
        return path_graph(n)
    if kind == "star":
        return build_graph(n, [(0, v) for v in range(1, n)])
    return build_graph(n, itertools.combinations(range(n), 2))


FAMILIES = ("random", "path", "star", "complete", "deep")


@given(st.data())
@settings(max_examples=3, deadline=None)
def test_both_distance_builds_match_per_source_bfs_and_hub_oracle(data):
    """The one build at every n from 1 to 78, against the independent hub
    oracle; every one of these oracles is int16, by the dtype rule."""
    for n in range(1, 79):
        kind = data.draw(st.sampled_from(FAMILIES), label=f"family at n = {n}")
        g = family_graph(kind, n, data.draw(st.integers(0, 2**32 - 1)))
        d = all_pairs_distances(g)
        assert d.dist.dtype == np.int16 and not d.dist.flags.writeable
        assert d.dist.tolist() == hub_distances(g, frozenset())


def test_oracle_dtype_is_the_narrowest_signed_one_holding_n_squared():
    """The rule at its two boundaries, by arithmetic alone: a SUM term is at
    most n(n - 1) and a through value at most 2n, both within n^2.  The
    build fills the dtype it is given, with no sentinel to make room for."""
    widths = {n: graphs._oracle_dtype(n) for n in (1, 2, 181, 182, 46_340, 46_341)}
    assert widths == {
        1: np.int16, 2: np.int16, 181: np.int16,
        182: np.int32, 46_340: np.int32, 46_341: np.int64,
    }
    assert 181 * 180 <= np.iinfo(np.int16).max < 182 * 182
    assert 46_340 * 46_339 <= np.iinfo(np.int32).max < 46_341 * 46_341
    for dtype in (np.int16, np.int32, np.int64):
        dist = graphs._bitset_distances(path_graph(5), np.dtype(dtype))
        assert dist.dtype == dtype and dist[0].tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("budget", [1, 5, 64])
@pytest.mark.parametrize("kind", FAMILIES)
def test_frontier_build_in_small_source_blocks(monkeypatch, budget, kind):
    """The bit-parallel build against the hub oracle at each side of one and
    two 64-bit words per row, with the gather budget forced to ``budget``
    words and at its default.  By symmetry row ``v`` of the packed sets is
    also source ``v``'s visited set, so a block of rows is a block of
    sources; at 1 word every row is a block of its own."""
    default = graphs._GATHER_WORDS
    for n in (1, 2, 63, 64, 65, 128, 129):
        g = family_graph(kind, n, budget)
        expected = hub_distances(g, frozenset())
        for words in (budget, default):
            monkeypatch.setattr(graphs, "_GATHER_WORDS", words)
            assert all_pairs_distances(g).dist.tolist() == expected, (n, words)


def test_long_path_oracle_is_int32_past_255():
    """A 300-node path: five words per row, distances up to 299 in nine bit
    slices, an int32 oracle; every entry is ``|i - j|``."""
    d = all_pairs_distances(path_graph(300)).dist
    ids = np.arange(300)
    assert d.dtype == np.int32 and int(d.max()) == 299
    assert np.array_equal(d, np.abs(ids[:, None] - ids[None, :]))


@given(connected_graphs(min_n=1, max_n=12), st.data())
@settings(max_examples=60, deadline=None)
def test_bfs_tree_is_first_in_first_out_over_sorted_neighbours(g, data):
    """Construction results depend on this visit order, so it is pinned
    against a plain queue-based BFS."""
    root = data.draw(st.integers(0, g.n - 1))
    order, level = _bfs_tree(g, root)
    expected, queue, seen = [], deque([root]), {root}
    while queue:
        u = queue.popleft()
        expected.append(u)
        for v in sorted(g.adj[u]):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    assert order == expected
    assert tuple(level) == bfs_levels(g, root)


def reference_girth(g) -> int | float:
    """The least ``1 + d(u, v)`` over edges ``uv``, with the distance taken by
    a plain BFS from ``u`` that may not use ``uv`` itself."""
    best = UNBOUNDED
    for u, v in g.edges():
        seen, queue = {u: 0}, deque([u])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y not in seen and {x, y} != {u, v}:
                    seen[y] = seen[x] + 1
                    queue.append(y)
        if v in seen:
            best = min(best, 1 + seen[v])
    return best


@st.composite
def girth_cases(draw):
    kind = draw(st.sampled_from(["tree", "deep", "cycle", "clique", "random"]))
    n = draw(st.integers(3, 16))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "tree":
        return tree_from_prufer([rnd.randrange(n) for _ in range(n - 2)], n)
    if kind == "deep":
        return deep_tree(rnd, n)
    if kind == "cycle":  # a cycle of c nodes with a random tree grown off it
        c = rnd.randint(3, n)
        cycle = [(i, (i + 1) % c) for i in range(c)]
        return build_graph(n, cycle + [(rnd.randrange(v), v) for v in range(c, n)])
    if kind == "clique":
        return build_graph(n, itertools.combinations(range(n), 2))
    return random_connected_graph(rnd, n, extra=rnd.randrange(2 * n))


@given(girth_cases(), st.sampled_from([1, 7, 1 << 18]))
@settings(max_examples=120, deadline=None)
def test_girth_matches_an_edge_removal_reference(g, budget):
    """The girth read off the distances equals an edge-by-edge reference, with
    the roots in blocks of every size the budget allows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_GATHER_WORDS", budget)
        assert metrics(all_pairs_distances(g)).girth == reference_girth(g)


@given(st.integers(0, 2**32 - 1), st.integers(4, 24))
@settings(max_examples=40, deadline=None)
def test_random_trees_have_unbounded_girth(seed, n):
    rnd = random.Random(seed)
    seq = [rnd.randrange(n) for _ in range(n - 2)]
    g = tree_from_prufer(seq, n)
    assert g.edge_count() == n - 1
    assert metrics(all_pairs_distances(g)).girth == UNBOUNDED


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_extra_edge_bounds_girth(seed):
    rnd = random.Random(seed)
    g = random_connected_graph(rnd, 8, extra=3)
    girth = metrics(all_pairs_distances(g)).girth
    if g.edge_count() > g.n - 1:
        assert 3 <= girth <= g.n
    else:
        assert girth == UNBOUNDED


def test_oracle_beyond_physical_memory_is_refused(monkeypatch):
    """On a 30-node path the build's own peak outweighs the callers' 9 bytes
    per cell (8,100): the int16 result, two packed levels and five bit
    slices of one word per row, the gather and the unpacked bits of all 88
    closed-neighbourhood entries, the OR's casting buffer, 16 bytes per
    entry and 8 KiB.  Exactly that much physical memory admits the oracle,
    and one byte less refuses it before the matrix exists."""
    need = 2 * 900 + 8 * 30 * (5 + 2) + 8 * 88 + 900 + 2 * 900 + 16 * 88 + 8192
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    assert all_pairs_distances(path_graph(30)).dist[0, 29] == 29
    memory["SC_PHYS_PAGES"] -= 1
    match = f"n = 30 need about {need} bytes, .*physical memory"
    with pytest.raises(StateSpaceTooLarge, match=match):
        all_pairs_distances(path_graph(30))


def test_metrics_peak_stays_within_the_oracle_estimate():
    """On a star almost every pair attains the diameter; finding the first one
    must not index them all.  With the oracle it reads, ``metrics`` stays
    within the oracle's estimate."""
    n = 500
    d = all_pairs_distances(build_graph(n, [(0, v) for v in range(1, n)]))
    found = []
    peak = traced_peak(lambda: found.append(metrics(d)))
    assert (found[0].diameter, found[0].peripheral_pair) == (2, (1, 2))
    assert d.dist.nbytes + peak <= graphs._ORACLE_CELL_BYTES * n * n


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(build_graph(1000, [(0, v) for v in range(1, 1000)]), id="star-1000"),
        pytest.param(build_graph(200, itertools.combinations(range(200), 2)), id="clique-200"),
        pytest.param(path_graph(30), id="path-30"),
        pytest.param(path_graph(1000), id="path-1000"),
    ],
)
def test_oracle_estimate_bounds_the_distance_build(monkeypatch, g):
    """The bytes the oracle's refusal checks cover the build's own peak.  On
    the clique and the short path the build's estimate outweighs the 9 bytes
    per cell; the int32 path-1000 holds ten bit slices, the most per cell."""
    needs = []
    monkeypatch.setattr(graphs, "check_memory", lambda need, *rest: needs.append(need))
    peak = traced_peak(lambda: all_pairs_distances(g))
    assert peak <= needs[0]


def test_int64_oracle_doubles_its_estimate(monkeypatch):
    """Past 46,340 nodes the oracle and the move kernel's temporary are int64,
    so the estimate is 18 bytes per cell: the build's own peak, an int64
    result and 18 packed words of bits per 64 cells, stays below it.
    Refused before anything is built."""
    n = 46_341
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 9 * n * n + 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    need = 18 * n * n
    assert graphs._build_bytes(n, 2 * (n - 1), 3, np.dtype(np.int64)) < need
    with pytest.raises(StateSpaceTooLarge, match=f"n = {n} need about {need} bytes"):
        all_pairs_distances(path_graph(n))
