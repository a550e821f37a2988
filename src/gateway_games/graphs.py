"""Immutable undirected graphs plus the metric queries the game layers build on.

Node ids are dense integers in ``[0, n)``.  External node names, if any, are
mapped at the I/O boundary; everything past that point indexes straight into
matrices.  Graphs are validated once at construction time and never mutated,
so they are safe to share across workers and to use as cache keys.
"""

from __future__ import annotations

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

# Candidate (source, node) pairs per block of sources in the distance build.
_FRONTIER_BUDGET = 1 << 18
# Peak bytes of frontier arrays per candidate of a block.  A level holds the
# previous level's kept pairs and their own candidates, at most a block's
# candidates together, in several intp arrays each.  Tracemalloc peak beyond
# the result: 38.1 and 38.2 on 1000- and 2000-node stars (int32 result), 40.1
# and 40.2 with an int64 result, 32.1 on K_513; about 10 MB once a block
# makes its full budget of candidates.
_CANDIDATE_BYTES = 41
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

    One BFS from every source at once in numpy (``_frontier_distances``)
    builds the matrix at every graph size.  Raises :class:`StateSpaceTooLarge`
    before any of it exists when ``9 n^2`` bytes, the peak of the callers that
    score moves on it, plus the frontier arrays of one block of sources would
    not fit in physical memory; ``18 n^2`` above 46,340 nodes, where the
    oracle and the callers' temporaries are int64.
    """
    dtype = _oracle_dtype(g.n)
    arcs = 2 * g.edge_count()
    frontier = _CANDIDATE_BYTES * min(g.n, _source_block(arcs)) * arcs
    need = g.n * g.n * _ORACLE_CELL_BYTES * max(1, dtype.itemsize // 4) + frontier
    check_memory(need, StateSpaceTooLarge, f"distances on n = {g.n} need")
    dist = _frontier_distances(g).astype(dtype, copy=False)
    dist.setflags(write=False)
    return DistanceOracle(g, dist)


def _source_block(arcs: int) -> int:
    """Sources per block of the distance build: a source makes one candidate
    per arc, ``arcs`` in all, so a block makes at most ``_FRONTIER_BUDGET``
    unless one source alone makes more."""
    return max(1, _FRONTIER_BUDGET // max(arcs, 1))


def _frontier_distances(g: Graph) -> np.ndarray:
    """Level-synchronous BFS from every source at once.

    The frontier holds ``(source, node)`` pairs as flat indices
    ``source * n + node`` into the result.  Each level expands every pair to
    all of its node's neighbours with one gather over the CSR adjacency,
    keeps the pairs not yet reached and drops duplicates without sorting:
    each candidate writes its own marker ``-2 - i`` into its unreached cell,
    and the one candidate whose marker survives keeps the cell.  A source
    reaches each node once, so over all levels it makes ``2m`` candidates;
    sources run in blocks of ``_FRONTIER_BUDGET // 2m`` to bound them.  The
    result is int32 up to n = 46,340 and int64 above: ``-1`` and the markers
    fit, since a level keeps fewer than ``2^31`` candidates.
    """
    n = g.n
    deg = np.fromiter(map(len, g.adj), dtype=np.intp, count=n)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=start[1:])
    nbr = np.fromiter(itertools.chain.from_iterable(g.adj), dtype=np.intp, count=int(start[-1]))

    def neighbour_pairs(front: np.ndarray) -> np.ndarray:
        # Every (source, neighbour) pair of the frontier's pairs.  A node's
        # run of output offsets begins at e, and offset j reads
        # nbr[start[node] + j - e]; ``shift`` is start[node] - e.
        node = front % n
        counts = deg[node]
        shift = np.cumsum(counts)
        shift -= counts
        np.subtract(start[node], shift, out=shift)
        pos = np.repeat(shift, counts)
        pos += np.arange(pos.size, dtype=np.intp)
        pairs = nbr[pos]
        pairs += np.repeat(front - node, counts)
        return pairs

    dist = np.full((n, n), -1, dtype=np.promote_types(_oracle_dtype(n), np.int32))
    flat = dist.reshape(-1)
    block = _source_block(int(start[-1]))
    for first in range(0, n, block):
        front = np.arange(first, min(first + block, n), dtype=np.intp) * (n + 1)
        flat[front] = 0
        level = 0
        while front.size:
            level += 1
            cand = neighbour_pairs(front)
            cand = cand[flat[cand] < 0]
            marker = np.arange(-2, -2 - cand.size, -1, dtype=dist.dtype)
            flat[cand] = marker
            front = cand[flat[cand] == marker]
            flat[front] = level
    return dist


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
    is the girth.  Roots run in blocks of ``_FRONTIER_BUDGET // m``.
    """
    g = d.graph
    if g.edge_count() == g.n - 1:  # a connected graph is a tree iff m == n - 1
        return UNBOUNDED
    u, v = np.array(g.edges(), dtype=np.intp).T
    best = g.n  # a cycle has at most n nodes
    block = max(1, _FRONTIER_BUDGET // len(u))
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
        return build_graph(payload["n"], edges)
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
    return build_graph(n, edges)
