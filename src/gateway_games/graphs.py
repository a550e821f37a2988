"""Immutable undirected graphs plus the metric queries the game layers build on.

Node ids are dense integers in ``[0, n)``.  External node names, if any, are
mapped at the I/O boundary; everything past that point indexes straight into
matrices.  Graphs are validated once at construction time and never mutated,
so they are safe to share across workers and to use as cache keys.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    NodeIdOutOfRange,
    SelfLoop,
    StateSpaceTooLarge,
    check_memory,
)

UNBOUNDED = math.inf
"""Girth sentinel for acyclic graphs. Compares correctly against any rational."""

# Words of one block's temporaries in the distance build: the packed rows it
# gathers at once (or one node's closed neighbourhood, if that is more), and
# an eighth of the distance cells it unpacks at once.
# The girth reads the oracle in blocks of this many (root, edge) pairs.
_GATHER_WORDS = 1 << 16
# The distance build's bytes per closed-neighbourhood entry (its intp index
# and at most one block offset), and its bytes beyond the arrays that
# _build_bytes counts: unpackbits' own 5.3 KB, the OR's iterator and Python
# objects.  Tracemalloc, five families at 16 sizes from 1 to 500 nodes, a
# 1000-node path and 1000- and 2000-node stars: at most 6.0 KB beyond.
_ENTRY_BYTES = 16
_BUILD_SLACK = 1 << 13
# Peak bytes per distance cell of a dynamics run: the int32 oracle plus one
# (n, n) int32 temporary, the move kernel's gateway gather or its terms.
# Tracemalloc, on a 500-node path: 8.38 from {0}, 8.35 from every other
# node and 8.29 from all nodes; 8.11, 8.12 and 8.08 on a 1000-node one.
_ORACLE_CELL_BYTES = 9


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``, so a node's
    degree is ``len(adj[v])``.  Instances are hashable.  Nothing is memoised
    per graph: each ``all_pairs_distances`` call builds its oracle afresh.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalise an edge list into a :class:`Graph`.

    Duplicate edges (in either orientation) are collapsed.  Raises
    :class:`SelfLoop`, :class:`NodeIdOutOfRange`, or
    :class:`DisconnectedGraph` when the input is not a connected simple
    graph on ``[0, n)``.
    """
    if n < 1:
        raise NodeIdOutOfRange(f"node count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) joins a node to itself")
        if not (0 <= u < n and 0 <= v < n):
            raise NodeIdOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
        seen.add((min(u, v), max(u, v)))
    if len(seen) < n - 1:
        # Too few edges to connect n nodes: refuse before allocating n lists.
        raise DisconnectedGraph(f"graph on {n} nodes is not connected")
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for u, v in seen:
        neighbours[u].add(v)
        neighbours[v].add(u)
    g = Graph(n, tuple(tuple(sorted(a)) for a in neighbours))
    if len(_bfs_tree(g, 0)[0]) != n:
        raise DisconnectedGraph(f"graph on {n} nodes is not connected")
    return g


def _bfs_tree(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Visit order and hop levels from ``root``.

    Neighbours are taken first in, first out in sorted adjacency order.
    Unreached nodes stay at level ``-1``.
    """
    order = [root]
    level = [-1] * g.n
    level[root] = 0
    for u in order:  # the list grows while it is walked: a FIFO queue
        for v in g.adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
    return order, level


def bfs_levels(g: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from ``source`` to every node."""
    if not 0 <= source < g.n:
        raise NodeIdOutOfRange(f"source {source} outside [0, {g.n})")
    return tuple(_bfs_tree(g, source)[1])


@dataclass(frozen=True, eq=False)
class DistanceOracle:
    """All-pairs hop distances for one graph.

    ``dist`` is a read-only ``n x n`` integer array.  Cost queries take the
    oracle alone: the graph enters costs only through these distances, and
    helpers that need adjacency read ``graph``.
    """

    graph: Graph
    dist: np.ndarray


def _oracle_dtype(n: int) -> np.dtype:
    """The narrowest signed integer dtype in which ``_engine._terms`` is exact
    on an ``n``-node oracle with no widening: int16 for n <= 181, int32 for
    n <= 46,340, else int64.  A through value ``a(v) + a(u)`` is at most
    ``2n`` and a SUM term at most ``n(n - 1)``, both within ``n^2`` for
    n >= 2.  Signed, so a difference of two terms cannot wrap either."""
    for dtype in (np.int16, np.int32):
        if n * n <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """All-pairs hop distances; returns a read-only ``n x n`` matrix of
    dtype ``_oracle_dtype(n)``.

    One bit-parallel BFS from every source at once (``_bitset_distances``)
    builds the matrix at every graph size.  ``_check_oracle`` refuses it
    before any of it exists, on the larger of the callers' peak and the
    build's own, ``_build_bytes``; the two never coexist, since the build's
    temporaries are gone when it returns.
    """
    dtype = _oracle_dtype(g.n)
    widest = 1 + max(map(len, g.adj))
    _check_oracle(g.n, _build_bytes(g.n, 2 * g.edge_count(), widest, dtype))
    dist = _bitset_distances(g, dtype)
    dist.setflags(write=False)
    return DistanceOracle(g, dist)


def _check_oracle(n: int, build: int) -> None:
    """Raise :class:`StateSpaceTooLarge` when the larger of ``build`` bytes and
    the peak of the callers that score moves on an ``n``-node oracle would
    not fit in physical memory.  That peak needs only ``n``: ``9 n^2`` bytes,
    or ``18 n^2`` above 46,340 nodes, where the oracle and their temporaries
    are int64."""
    callers = n * n * _ORACLE_CELL_BYTES * max(1, _oracle_dtype(n).itemsize // 4)
    check_memory(max(callers, build), StateSpaceTooLarge, f"distances on n = {n} need")


def _build_bytes(n: int, arcs: int, widest: int, dtype: np.dtype) -> int:
    """A bound on ``_bitset_distances``' peak: the result; two packed levels
    and at most ``bit_length(n - 1)`` bit slices, each ``n * ceil(n / 64)``
    words; one block's gather, ``_GATHER_WORDS`` words or, if more, the
    ``widest`` rows of the largest closed neighbourhood, and at most the
    ``n + arcs`` rows of them all; its unpacked bits, at most
    ``8 * _GATHER_WORDS`` bytes or one row; the buffer of the OR that casts
    those bits to ``dtype``, ``np.getbufsize()`` cells at most;
    ``_ENTRY_BYTES`` per closed-neighbourhood entry; and ``_BUILD_SLACK``."""
    words = -(-n // 64)
    packed = 8 * n * words * ((n - 1).bit_length() + 2)
    gather = 8 * min((n + arcs) * words, max(_GATHER_WORDS, widest * words))
    unpacked = min(n * n, max(n, 8 * _GATHER_WORDS))
    cast = min(n * n, np.getbufsize()) * dtype.itemsize
    entries = _ENTRY_BYTES * (n + arcs)
    return n * n * dtype.itemsize + packed + gather + unpacked + cast + entries + _BUILD_SLACK


def _gather_plan(start: np.ndarray, words: int) -> list[tuple[slice, slice, np.ndarray]]:
    """Blocks of consecutive rows, ``(rows, entries, offsets)``: each block's
    closed neighbourhoods hold at most ``_GATHER_WORDS // words`` entries in
    all, or it is one row that holds more; ``offsets`` are where its rows
    begin among its entries."""
    per = _GATHER_WORDS // words
    bounds = start.tolist()
    plan = []
    row = 0
    while row < len(bounds) - 1:
        first = bounds[row]
        end = max(row + 1, bisect.bisect_right(bounds, first + per) - 1)
        plan.append((slice(row, end), slice(first, bounds[end]), start[row:end] - first))
        row = end
    return plan


def _bitset_distances(g: Graph, dtype: np.dtype) -> np.ndarray:
    """All-pairs hop distances in ``dtype``, from the bit slices of
    ``_bit_slices``: the ``bit_length(diameter)`` slices are unpacked, block
    by block of rows, straight into the zeroed result, highest slice first.
    The BFS's other arrays are freed before the result exists."""
    n = g.n
    slices = _bit_slices(g)
    dist = np.zeros((n, n), dtype=dtype)
    step = max(1, 8 * _GATHER_WORDS // n)
    for first in range(0, n, step):
        block = dist[first : first + step]
        for bits in reversed(slices):
            np.left_shift(block, 1, out=block)
            block |= np.unpackbits(
                bits[first : first + step].view(np.uint8), axis=1, count=n, bitorder="little"
            )
    return dist


def _bit_slices(g: Graph) -> list[np.ndarray]:
    """Level-synchronous BFS from every source at once, over packed source sets.

    Row ``v`` of ``reach`` is a bit set over the sources, bit ``s % 64`` of
    little-endian uint64 word ``s // 64``, holding the sources within ``k``
    hops of ``v`` after level ``k``; distances are symmetric, so it is also
    the set of nodes within ``k`` hops of source ``v``.  A level ORs every
    row's closed neighbourhood into it with one ``np.bitwise_or.reduceat``
    per block of rows of ``_gather_plan``; an XOR with the previous level
    leaves the pairs first reached at level ``k``, which are ORed into bit
    slice ``j`` for each set bit ``j`` of ``k``.  The first level that
    reaches nothing new ends the BFS, so slice ``j`` holds bit ``j`` of every
    distance.  A level costs ``O((n + m) * n / 64)`` word operations however
    few pairs it reaches, so a long diameter costs more than a frontier of
    pairs would.
    """
    n = g.n
    words = -(-n // 64)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum([len(a) + 1 for a in g.adj], out=start[1:])
    closed = itertools.chain.from_iterable((v, *a) for v, a in enumerate(g.adj))
    entries = np.fromiter(closed, dtype=np.intp, count=int(start[-1]))
    plan = _gather_plan(start, words)
    buffer = np.empty((max(p.stop - p.start for _, p, _ in plan), words), dtype=np.uint64)
    plan = [(rows, entries[p], at, buffer[: p.stop - p.start]) for rows, p, at in plan]

    reach = np.zeros((n, words), dtype=np.uint64)
    ids = np.arange(n)
    reach.view(np.uint8)[ids, ids >> 3] = 1 << (ids & 7)
    nxt = np.empty_like(reach)
    slices: list[np.ndarray] = []
    for level in range(1, n + 1):  # level diameter + 1 <= n reaches nothing new
        for rows, picks, at, gathered in plan:
            reach.take(picks, axis=0, out=gathered, mode="clip")  # unbuffered; picks are in range
            np.bitwise_or.reduceat(gathered, at, axis=0, out=nxt[rows])
        np.bitwise_xor(reach, nxt, out=reach)  # the pairs first reached at this level
        if not np.count_nonzero(reach):
            break
        if level == 1 << len(slices):
            slices.append(np.zeros_like(reach))
        for j, bits in enumerate(slices):
            if level >> j & 1:
                bits |= reach
        reach, nxt = nxt, reach
    return slices


@dataclass(frozen=True)
class GraphMetrics:
    diameter: int
    girth: int | float
    peripheral_pair: tuple[int, int]


def metrics(d: DistanceOracle) -> GraphMetrics:
    """Diameter, girth, and one diameter-attaining pair.

    The girth of an acyclic graph is :data:`UNBOUNDED`.  The peripheral pair
    is the lexicographically smallest ``(u, v)`` with ``dist(u, v)`` equal to
    the diameter.
    """
    g = d.graph
    diameter = int(d.dist.max())
    pair = (0, 0)
    if g.n > 1:
        flat = int(np.argmax(d.dist == diameter))  # the first such cell
        pair = (flat // g.n, flat % g.n)
    return GraphMetrics(diameter, _girth(d), pair)


def _girth(d: DistanceOracle) -> int | float:
    """The girth, read off the distances.

    Seen from a root, an edge whose ends both sit at depth ``k`` closes a
    cycle of at most ``2k + 1`` edges, and a node at depth ``k`` with two
    neighbours at depth ``k - 1`` one of at most ``2k``.  A root on a shortest
    cycle sees exactly that cycle's length, so the least bound over all roots
    is the girth.  Roots run in blocks of ``_GATHER_WORDS // m``.
    """
    g = d.graph
    if g.edge_count() == g.n - 1:  # a connected graph is a tree iff m == n - 1
        return UNBOUNDED
    u, v = np.array(g.edges(), dtype=np.intp).T
    best = g.n  # a cycle has at most n nodes
    block = max(1, _GATHER_WORDS // len(u))
    for first in range(0, g.n, block):
        depth = d.dist[first : first + block]
        du, dv = depth[:, u], depth[:, v]
        level = du == dv
        # Every other edge joins consecutive depths: count each node's edges one level up.
        rows = np.arange(len(depth))[:, None] * g.n
        ups = np.bincount((rows + np.where(du > dv, u, v))[~level], minlength=depth.size)
        odd = np.where(level, 2 * du + 1, best).min()
        even = np.where(ups.reshape(depth.shape) >= 2, 2 * depth, best).min()
        best = min(best, int(odd), int(even))
    return best


def graph_to_json(g: Graph) -> str:
    """Canonical JSON serialisation: ``{"n": ..., "edges": [[u, v], ...]}``."""
    payload = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph(text: str) -> Graph:
    """Parse either the JSON format or the plain edge-list format.

    Edge-list format: first non-blank line is ``n``, every following
    non-blank line is one ``u v`` pair.
    """
    return build_graph(*_read_graph(text))


def _read_graph(text: str) -> tuple[int, list]:
    """``parse_graph``'s ``(n, edges)``, read but not yet validated as a graph."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except RecursionError:
            raise ValueError("graph document nests too deeply") from None
        if not isinstance(payload, dict) or not _is_int(payload.get("n")):
            raise ValueError('graph document needs an integer "n"')
        edges = payload.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError('graph "edges" must be a list of [u, v] integer pairs')
        return payload["n"], edges
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph document")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"expected 'n' header, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"malformed edge line: {ln!r}") from None
        edges.append((u, v))
    return n, edges
