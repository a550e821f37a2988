"""Immutable undirected graphs plus the metric queries the game layers build on.

Node ids are dense integers in ``[0, n)``.  External node names, if any, are
mapped at the I/O boundary; everything past that point indexes straight into
matrices.  Graphs are validated once at construction time and never mutated,
so they are safe to share across workers and to use as cache keys.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraph, NodeIdOutOfRange, SelfLoop

UNBOUNDED = math.inf
"""Girth sentinel for acyclic graphs. Compares correctly against any rational."""


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``.  Instances are
    hashable, which lets distance computations be memoised per graph.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])


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
    if _bfs_reach_count(g, 0) != n:
        raise DisconnectedGraph(f"graph on {n} nodes is not connected")
    return g


def _bfs_reach_count(g: Graph, source: int) -> int:
    seen = bytearray(g.n)
    seen[source] = 1
    queue = deque([source])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count


def bfs_levels(g: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from ``source`` to every node."""
    return multi_source_levels(g, (source,))


def multi_source_levels(g: Graph, sources: Iterable[int]) -> tuple[int, ...]:
    """Hop distance from each node to the nearest of ``sources``."""
    level = [-1] * g.n
    queue: deque[int] = deque()
    for s in sources:
        if not (0 <= s < g.n):
            raise NodeIdOutOfRange(f"source {s} outside [0, {g.n})")
        if level[s] < 0:
            level[s] = 0
            queue.append(s)
    if not queue:
        raise NodeIdOutOfRange("at least one source required")
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return tuple(level)


@dataclass(frozen=True, eq=False)
class DistanceOracle:
    """All-pairs hop distances for one graph.

    The matrix is a read-only ``n x n`` integer array; ``dist_between`` is the
    scalar accessor.  The owning graph is kept so consumers can verify the
    oracle matches the graph they were handed.
    """

    graph: Graph
    dist: np.ndarray

    def dist_between(self, u: int, v: int) -> int:
        return int(self.dist[u, v])

    def row(self, u: int) -> np.ndarray:
        return self.dist[u]

    def eccentricity(self, v: int) -> int:
        return int(self.dist[v].max())


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """BFS from every node; returns a read-only distance matrix."""
    dist = np.zeros((g.n, g.n), dtype=np.int64)
    for s in range(g.n):
        dist[s] = multi_source_levels(g, (s,))
    dist.setflags(write=False)
    return DistanceOracle(g, dist)


def _check_oracle(g: Graph, d: DistanceOracle) -> None:
    # Identity first: comparing two distinct equal graphs walks every adjacency.
    if d.graph is not g and d.graph != g:
        raise ValueError("distance oracle belongs to a different graph")


@dataclass(frozen=True)
class GraphMetrics:
    diameter: int
    girth: int | float
    peripheral_pair: tuple[int, int]


def metrics(g: Graph, d: DistanceOracle) -> GraphMetrics:
    """Diameter, girth, and one diameter-attaining pair.

    The girth of an acyclic graph is :data:`UNBOUNDED`.  The peripheral pair
    is the lexicographically smallest ``(u, v)`` with ``dist(u, v)`` equal to
    the diameter.
    """
    _check_oracle(g, d)
    diameter = int(d.dist.max())
    pair = (0, 0)
    if g.n > 1:
        flat = int(np.flatnonzero(d.dist == diameter)[0])
        pair = (flat // g.n, flat % g.n)
    return GraphMetrics(diameter, _girth(g), pair)


def _girth(g: Graph) -> int | float:
    # A connected graph is a tree iff m == n - 1.
    if g.edge_count() == g.n - 1:
        return UNBOUNDED
    best: int | float = UNBOUNDED
    for root in range(g.n):
        level = multi_source_levels(g, (root,))
        parent = [-1] * g.n
        queue = deque([root])
        order = [root]
        seen = bytearray(g.n)
        seen[root] = 1
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    parent[v] = u
                    order.append(v)
                    queue.append(v)
        for u in range(g.n):
            for v in g.adj[u]:
                if u < v and parent[u] != v and parent[v] != u:
                    # Non-tree edge: closes a walk through the root whose
                    # length bounds some cycle from above.
                    best = min(best, level[u] + level[v] + 1)
    return int(best)


@dataclass(frozen=True)
class ComponentSet:
    """Partition of a vertex subset into connected components.

    ``assignment[v]`` is the component index of ``v``, or ``-1`` for removed
    nodes.  Components are indexed in order of their smallest member.
    """

    assignment: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)


def components_without(g: Graph, removed: Iterable[int]) -> ComponentSet:
    """Connected components of the subgraph induced on ``V minus removed``."""
    gone = set()
    for v in removed:
        if not (0 <= v < g.n):
            raise NodeIdOutOfRange(f"removed node {v} outside [0, {g.n})")
        gone.add(v)
    assignment = [-1] * g.n
    sizes: list[int] = []
    for start in range(g.n):
        if start in gone or assignment[start] >= 0:
            continue
        index = len(sizes)
        assignment[start] = index
        queue = deque([start])
        size = 1
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in gone and assignment[v] < 0:
                    assignment[v] = index
                    size += 1
                    queue.append(v)
        sizes.append(size)
    return ComponentSet(tuple(assignment), tuple(sizes))


def graph_to_json(g: Graph) -> str:
    """Canonical JSON serialisation: ``{"n": ..., "edges": [[u, v], ...]}``."""
    payload = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def graph_to_edge_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


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
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)
