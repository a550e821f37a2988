"""Parameterised instance families with known game-theoretic behaviour.

Each generator, and ``reduce_set_cover``, returns a :class:`GeneratedGame`
carrying the graph, a role map (which node plays which part), a suggested
initial profile, and the variant, price and parameters the instance is built for.
Validity checks raise :class:`ParameterOutOfRange` with the violated
inequality spelled out, so CLI users see exactly which bound they missed.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (
    ConstructionNotEquilibrium,
    ElementUncovered,
    GirthTooSmall,
    ParameterOutOfRange,
    check_memory,
)
from .game import (
    GameConfig,
    StrategyProfile,
    Variant,
    _ProfileState,
    evaluate_move,  # noqa: F401  bound only for perfbench/test_tracer.py's rebinding check
    floor_sqrt,
    is_nash_equilibrium,
)
from .graphs import (
    DistanceOracle,
    Graph,
    _bfs_tree,
    all_pairs_distances,
    build_graph,
    metrics,
)


@dataclass(frozen=True)
class GeneratedGame:
    """A constructed instance.  ``alpha`` is None for a family built for every
    price; ``params`` holds the values it was built from."""

    graph: Graph
    roles: dict
    initial: StrategyProfile | None
    variant: Variant
    alpha: Fraction | None
    params: dict


# Peak bytes per edge of ``gen`` through the CLI, which also writes the graph as
# JSON and its roles: tracemalloc read 551 on paths and stars of 3e5 nodes, and
# 355 on non-wag --experimental at alpha = 800.  The peak is build_graph's, not
# the serialisation's.
_GEN_EDGE_BYTES = 552


def _check_edges(edges: int, edge_bytes: int, what: str) -> None:
    """Refuse a graph of ``edges`` edges, counted before any edge list exists,
    at ``edge_bytes`` each, that would not fit in physical memory."""
    check_memory(edges * edge_bytes, ParameterOutOfRange, f"{what} builds {edges} edges,")


@dataclass(frozen=True)
class IrCycleParams:
    """Shape of the double-path gadget that cycles under best responses.

    The gadget is a path ``u .. v .. w`` with ``c - 1`` interior nodes on
    each half, ``r`` pendant nodes on ``w``, and the remaining
    ``n - 2c - r - 1`` pendant nodes on ``u``.
    """

    n: int
    c: int
    r: int
    alpha: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, Fraction):
            object.__setattr__(self, "alpha", Fraction(self.alpha))


def _ir_cycle_validate(params: IrCycleParams) -> None:
    n, c, r, alpha = params.n, params.c, params.r, params.alpha
    if c < 1:
        raise ParameterOutOfRange(f"c must satisfy c >= 1; got {c}")
    if r < 0:
        raise ParameterOutOfRange(f"r must satisfy r >= 0; got {r}")
    if n - 2 * c - r - 1 < 0:
        raise ParameterOutOfRange(
            f"need n - 2c - r - 1 >= 0 pendant nodes at u; got {n - 2 * c - r - 1}"
        )
    if c == 1:
        lo = Fraction(r + 2)
        hi = Fraction(min(n - 1, 2 * r + 2))
        if not lo < alpha < hi:
            raise ParameterOutOfRange(
                f"alpha must satisfy {lo} < alpha < min(n - 1, 2r + 2) = {hi}; got {alpha}"
            )
        return
    if n % 4 != 0 or n <= 16 or c != n // 4:
        raise ParameterOutOfRange(
            f"beyond c = 1, need c = n/4 with 4 | n and n > 16; got n = {n}, c = {c}"
        )
    alpha_lo = Fraction(3 * n * n, 32) + n
    alpha_hi = Fraction(5 * n * n, 32)
    if not alpha_lo < alpha < alpha_hi:
        raise ParameterOutOfRange(
            f"alpha must satisfy {alpha_lo} < alpha < {alpha_hi}; got {alpha}"
        )
    r_lo = 2 * alpha / n - Fraction(n, 8) - Fraction(1, 2)
    r_hi = 4 * alpha / n - Fraction(5 * n, 16) - Fraction(3, 2)
    if not r_lo < r < r_hi:
        raise ParameterOutOfRange(
            f"r must satisfy {r_lo} < r < {r_hi}; got {r}"
        )


def gen_ir_cycle(params: IrCycleParams) -> GeneratedGame:
    """Double-path gadget whose four-step toggle cycle never settles.

    Node layout: ``u = 0``, path interiors, ``v = c``, more interiors,
    ``w = 2c``, then ``r`` pendants on ``w`` and the rest on ``u``.
    """
    _ir_cycle_validate(params)
    n, c, r = params.n, params.c, params.r
    _check_edges(n - 1, _GEN_EDGE_BYTES, f"ir-cycle at n = {n}")
    edges = [(i, i + 1) for i in range(2 * c)]
    w = 2 * c
    w_pendants = list(range(w + 1, w + 1 + r))
    u_pendants = list(range(w + 1 + r, n))
    edges.extend((w, p) for p in w_pendants)
    edges.extend((0, p) for p in u_pendants)
    graph = build_graph(n, edges)
    roles = {
        "u": 0,
        "v": c,
        "w": w,
        "w_pendants": tuple(w_pendants),
        "u_pendants": tuple(u_pendants),
    }
    return GeneratedGame(
        graph, roles, StrategyProfile.of([w]), Variant.SUM, params.alpha,
        {"n": n, "c": c, "r": r, "alpha": params.alpha},
    )


def gen_non_wag(alpha: Fraction | int = 7, *, experimental: bool = False) -> GeneratedGame:
    """Gadget with a unique improving response everywhere and no reachable rest point.

    A path ``u - v - w``, a clique ``X`` of ``ceil(alpha/2)`` nodes joined to
    ``c`` and ``u``, a clique ``Y`` of ``floor(alpha/2)`` nodes joined to
    ``c`` and ``w``, and ``c`` joined to ``v``.  Certified for ``alpha = 7``
    only; other prices require ``experimental=True``.
    """
    alpha = Fraction(alpha)
    if alpha != 7 and not experimental:
        raise ParameterOutOfRange(
            f"only alpha = 7 is certified; got {alpha} (pass experimental=True to explore)"
        )
    if alpha < 2:
        raise ParameterOutOfRange(f"alpha must satisfy alpha >= 2; got {alpha}")
    x_size = math.ceil(alpha / 2)
    y_size = math.floor(alpha / 2)
    u, v, w = 0, 1, 2
    x_nodes = list(range(3, 3 + x_size))
    y_nodes = list(range(3 + x_size, 3 + x_size + y_size))
    c = 3 + x_size + y_size
    n = c + 1
    edges = 3 + x_size * (x_size + 3) // 2 + y_size * (y_size + 3) // 2  # cliques, 2 links each
    _check_edges(edges, _GEN_EDGE_BYTES, f"non-wag at alpha = {alpha}")
    edges = [(u, v), (v, w), (c, v)]
    edges.extend(itertools.combinations(x_nodes, 2))
    edges.extend(itertools.combinations(y_nodes, 2))
    for x in x_nodes:
        edges.extend([(x, c), (x, u)])
    for y in y_nodes:
        edges.extend([(y, c), (y, w)])
    graph = build_graph(n, edges)
    roles = {
        "u": u,
        "v": v,
        "w": w,
        "x": tuple(x_nodes),
        "y": tuple(y_nodes),
        "c": c,
    }
    return GeneratedGame(graph, roles, StrategyProfile.of([w]), Variant.SUM, alpha, {"alpha": alpha})


def _star_of_paths(sizes: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Paths of the given sizes hung off a center 0 and numbered outward, one
    path after another: the edges and each path's leaf.  Empty paths are skipped."""
    edges, leaves = [], []
    first = 1
    for size in filter(None, sizes):
        edges.append((0, first))
        edges.extend((i, i + 1) for i in range(first, first + size - 1))
        first += size
        leaves.append(first - 1)
    return edges, leaves


def gen_sum_poa_star(n: int, alpha: Fraction | int) -> GeneratedGame:
    """Star of paths whose single leaf gateway is a costly equilibrium.

    The center feeds ``floor((n-1)/L)`` paths of ``L = floor(sqrt(alpha)) - 1``
    nodes plus one shorter remainder path; the designated gateway is the leaf
    of the first path, at distance exactly ``L`` from the center.
    """
    alpha = Fraction(alpha)
    if not 4 <= alpha <= n - 1:
        raise ParameterOutOfRange(
            f"alpha must satisfy 4 <= alpha <= n - 1 = {n - 1}; got {alpha}"
        )
    length = floor_sqrt(alpha) - 1
    full_paths = (n - 1) // length
    if full_paths < 1:
        raise ParameterOutOfRange(
            f"need at least one full path: (n - 1) // {length} >= 1 fails for n = {n}"
        )
    _check_edges(n - 1, _GEN_EDGE_BYTES, f"sum-poa-star at n = {n}")
    sizes = [length] * full_paths + [(n - 1) % length]
    edges, path_leaves = _star_of_paths(sizes)
    graph = build_graph(n, edges)
    gateway = path_leaves[0]
    roles = {
        "center": 0,
        "gateway": gateway,
        "path_leaves": tuple(path_leaves),
    }
    return GeneratedGame(
        graph, roles, StrategyProfile.of([gateway]), Variant.SUM, alpha, {"n": n, "alpha": alpha}
    )


def gen_max_line(alpha: Fraction | int) -> GeneratedGame:
    """Line on ``3*floor(alpha) + 4`` nodes that cycles under the MAX rule.

    Roles ``u``, ``v``, ``w`` sit at positions 0, ``floor(alpha) + 1`` and
    ``2*floor(alpha) + 2``.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ParameterOutOfRange(f"alpha must satisfy alpha > 1; got {alpha}")
    f = math.floor(alpha)
    n = 3 * f + 4
    _check_edges(n - 1, _GEN_EDGE_BYTES, f"max-line at n = {n}")
    graph = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    roles = {"u": 0, "v": f + 1, "w": 2 * f + 2}
    return GeneratedGame(graph, roles, StrategyProfile.of([0]), Variant.MAX, alpha, {"alpha": alpha})


def gen_max_poa_star(n: int) -> GeneratedGame:
    """Three paths off a center; the far leaf of the last path is the gateway."""
    if n < 7:
        raise ParameterOutOfRange(f"n must satisfy n >= 7; got {n}")
    _check_edges(n - 1, _GEN_EDGE_BYTES, f"max-poa-star at n = {n}")
    k = (n - 1) // 3
    edges, leaves = _star_of_paths([k, k, n - 2 * k - 1])
    graph = build_graph(n, edges)
    gateway = leaves[-1]
    roles = {"center": 0, "gateway": gateway, "path_leaves": tuple(leaves)}
    return GeneratedGame(graph, roles, StrategyProfile.of([gateway]), Variant.MAX, None, {"n": n})


def _spaced_profile(
    d: DistanceOracle, alpha: Fraction, x1: int, x2: int, diameter: int
) -> StrategyProfile:
    # Seed gateways on the radius-R rings around a peripheral pair, keeping
    # them pairwise at distance >= R, then fill distance gaps at exactly
    # ceil(alpha) until every node sits within floor(alpha) of the set.
    g = d.graph
    radius = max(math.floor(min(alpha - 1, (Fraction(diameter) - alpha) / 2)), 0)
    chosen: list[int] = []
    for root in (x1, x2):
        order, levels = _bfs_tree(g, root)
        for v in order:
            if levels[v] != radius or v in chosen:
                continue
            if all(d.dist[v, s] >= radius for s in chosen):
                chosen.append(v)
    gap = math.ceil(alpha)
    while True:
        candidates = np.flatnonzero(d.dist[:, chosen].min(axis=1) == gap)
        if not candidates.size:
            break
        chosen.append(int(candidates[0]))
    return StrategyProfile.of(chosen)


def _cover_profile(d: DistanceOracle, radius: int, root: int) -> StrategyProfile:
    # Walk nodes outside-in from `root`; each node still uncovered promotes
    # its ancestor `radius` steps rootward, covering the ball around it.
    g = d.graph
    row = d.dist[root]
    order = sorted(range(g.n), key=lambda v: (-int(row[v]), v))
    chosen: list[int] = []
    covered = bytearray(g.n)
    for v in order:
        if covered[v]:
            continue
        cur = v
        for _ in range(radius):
            closer = [w for w in g.adj[cur] if row[w] < row[cur]]
            if not closer:
                break
            cur = min(closer)
        chosen.append(cur)
        for u in range(g.n):
            if d.dist[cur, u] <= radius:
                covered[u] = 1
    return StrategyProfile.of(chosen)


def _close_repair(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> StrategyProfile:
    # Shed gateways that would rather close, smallest id first.  Every applied
    # move shrinks the set, so the loop terminates; opens are the caller's problem.
    while len(s) > 1:
        toggles = _ProfileState(d, s).scan(cfg)
        closers = np.flatnonzero(toggles.improving & toggles.member)
        if not closers.size:
            return s
        s = s.toggled(int(closers[0]))
    return s


def _descent(d: DistanceOracle, cfg: GameConfig, start: StrategyProfile, max_steps: int):
    # Steepest descent on the count of improving moves, tie-broken by the
    # mover's own gain.  Profiles are never revisited within one run.
    s = start
    seen = {s.ids}
    for _ in range(max_steps):
        unhappy = _ProfileState(d, s).scan(cfg).moves()
        if not unhappy:
            return s
        unhappy.sort(key=lambda m: (m.cost_delta, m.node))
        best = None
        for mv in unhappy[:6]:
            t = s.toggled(mv.node)
            if t.ids in seen:
                continue
            unhappy_after = int(_ProfileState(d, t).scan(cfg).improving.sum())
            score = (unhappy_after, mv.cost_delta, mv.node)
            if best is None or score < best[0]:
                best = (score, t)
        if best is None:
            return None
        s = best[1]
        seen.add(s.ids)
    return None


def construct_max_ne(g: Graph, alpha: Fraction | int) -> StrategyProfile:
    """Build a verified MAX-rule equilibrium on a graph with no short cycles.

    Requires ``1 <= alpha < diameter`` and girth at least ``4 * alpha``
    (trees have unbounded girth and always qualify).  Candidates are tried
    in a fixed order: the central singleton and a spaced peripheral profile,
    then every other singleton, outside-in covering sets at a few radii
    (raw, and again after shedding gateways that prefer to close), and
    finally a bounded deterministic local search.  The first profile that
    passes :func:`is_nash_equilibrium` is returned; if every candidate
    fails, :class:`ConstructionNotEquilibrium` is raised rather than
    returning an unverified profile.
    """
    alpha = Fraction(alpha)
    d = all_pairs_distances(g)
    met = metrics(d)
    if not 1 <= alpha < met.diameter:
        raise ParameterOutOfRange(
            f"alpha must satisfy 1 <= alpha < diameter = {met.diameter}; got {alpha}"
        )
    if met.girth < 4 * alpha:
        raise GirthTooSmall(f"girth {met.girth} is below 4*alpha = {4 * alpha}")
    cfg = GameConfig(Variant.MAX, alpha)
    x1, x2 = met.peripheral_pair
    fa = math.floor(alpha)
    # Nodes by eccentricity, ties by id: the stable sort keeps ids ascending.
    central = np.argsort(d.dist.max(axis=1), kind="stable").tolist()

    def candidates() -> Iterator[StrategyProfile]:
        spaced = _spaced_profile(d, alpha, x1, x2, met.diameter)
        first = [StrategyProfile.of(central[:1]), spaced]
        if met.diameter >= 2 * alpha:
            first.reverse()
        yield from first
        for v in central:
            yield StrategyProfile.of([v])
        for radius in dict.fromkeys((fa, max(fa - 1, 1), max(fa // 2, 1))):
            for root in (x1, x2):
                cover = _cover_profile(d, radius, root)
                yield cover
                yield _close_repair(d, cfg, cover)
        yield _close_repair(d, cfg, spaced)  # a singleton has nothing to shed
        rng = random.Random(0x5EED)
        for _ in range(12):
            size = rng.randrange(1, g.n + 1)
            start = StrategyProfile.of(rng.sample(range(g.n), size))
            found = _descent(d, cfg, start, 150)
            if found is not None:
                yield found

    tried: set[tuple[int, ...]] = set()
    for s in candidates():
        if s.ids in tried:
            continue
        tried.add(s.ids)
        if is_nash_equilibrium(d, cfg, s):
            return s
    raise ConstructionNotEquilibrium(
        f"no candidate profile is stable at alpha = {alpha}"
    )


@dataclass(frozen=True)
class SetCoverInstance:
    """Ground set ``[0, m)`` plus a tuple of element subsets."""

    m: int
    sets: tuple[frozenset[int], ...]

    @property
    def n_sets(self) -> int:
        return len(self.sets)


def parse_set_cover(text: str) -> SetCoverInstance:
    """First line is ``m n_sets``; each following line lists one set's elements."""
    lines = text.splitlines()
    head = 0
    while head < len(lines) and not lines[head].strip():
        head += 1
    if head == len(lines):
        raise ValueError("empty set-cover document")
    try:
        m, n_sets = map(int, lines[head].split())
    except ValueError:
        raise ValueError(f"expected 'm n_sets' header, got {lines[head]!r}") from None
    if m < 0 or n_sets < 0:
        raise ValueError(f"'m n_sets' must be non-negative, got {lines[head]!r}")
    body = lines[head + 1 : head + 1 + n_sets]
    if len(body) < n_sets:
        raise ValueError(f"expected {n_sets} set lines, found {len(body)}")
    sets = []
    for ln in body:
        try:
            elems = frozenset(map(int, ln.split()))
        except ValueError:
            raise ValueError(f"malformed set line: {ln!r}") from None
        for e in elems:
            if not 0 <= e < m:
                raise ValueError(f"element {e} outside [0, {m})")
        sets.append(elems)
    return SetCoverInstance(m, tuple(sets))


def min_cover_size(inst: SetCoverInstance) -> int:
    """Exhaustive minimum cover size; only intended for small instances."""
    _check_covered(inst)
    universe = frozenset(range(inst.m))
    for size in range(0, inst.n_sets + 1):
        for combo in itertools.combinations(range(inst.n_sets), size):
            if frozenset().union(*(inst.sets[i] for i in combo), frozenset()) == universe:
                return size
    raise AssertionError("unreachable: full collection covers the universe")


# Peak bytes per edge of ``reduce`` through the CLI, which also writes the graph
# as JSON: tracemalloc read 246-451 on SUM and MAX instances of 8e3 to 3.2e5
# edges, the most on sparse ones, where the element copies add nodes.
_REDUCTION_EDGE_BYTES = 512


def _check_reduction_size(inst: SetCoverInstance, variant: Variant) -> None:
    """Refuse a reduction whose graph would not fit in physical memory, counting
    its edges in O(n_sets + sum |S|) before any edge list exists.  Call it after
    the variant's parameter checks: MAX needs ``1 <= m <= 2 * n_sets``."""
    n_sets = inst.n_sets
    if variant is Variant.SUM:
        k = inst.m - 1
        links = n_sets * sum(len(s) for s in inst.sets)  # n_sets copies of each element
    else:
        k, target_m = 3 * n_sets, 2 * n_sets
        # Element i < m stands for itself and for the (target_m - 1 - i) // m
        # padding elements e with e % m == i.
        links = sum(1 + (target_m - 1 - i) // inst.m for s in inst.sets for i in s)
    edges = k * (k - 1) // 2 + n_sets + links
    _check_edges(edges, _REDUCTION_EDGE_BYTES, f"{variant.name} reduction")


def _check_covered(inst: SetCoverInstance) -> None:
    covered = set().union(*inst.sets)  # never all of [0, m): a header may claim millions
    missing = inst.m - sum(1 for e in covered if 0 <= e < inst.m)
    if missing:
        first = list(itertools.islice((e for e in range(inst.m) if e not in covered), 5))
        raise ElementUncovered(f"{missing} of the {inst.m} elements are in no set, first {first}")


def reduce_set_cover(inst: SetCoverInstance, variant: Variant) -> GeneratedGame:
    """Embed a set-cover instance as a gateway placement problem.

    SUM: a ``(m-1)``-clique with a marked node ``c``, one node per set joined
    to ``c``, and ``n_sets`` copies of every element joined to the sets that
    contain it, at price ``4 * n_sets * (m-1)``.  MAX: a ``3*n_sets``-clique,
    single element nodes, price 3; the element count is padded up to
    ``2*n_sets`` by duplicating membership patterns, and instances with more
    than ``2*n_sets`` elements are rejected.  So is an instance whose graph
    would not fit in physical memory, before its edges are listed.
    """
    _check_covered(inst)
    m, n_sets = inst.m, inst.n_sets
    if variant is Variant.SUM:
        if m <= 4 or n_sets <= 4:
            warnings.warn(
                "cost separation is only guaranteed for more than four sets and elements",
                stacklevel=2,
            )
        k = m - 1
        if k < 1:
            raise ParameterOutOfRange(f"need m >= 2 elements; got {m}")
        _check_reduction_size(inst, variant)
        graph, roles = _reduction_graph(k, inst.sets, m, n_sets)
        alpha = Fraction(4 * n_sets * (m - 1))
        return GeneratedGame(graph, roles, None, variant, alpha, {"w": n_sets, "k": k})
    target_m = 2 * n_sets
    if m < 1:
        raise ParameterOutOfRange(f"MAX reduction needs m >= 1 element; got {m}")
    if m > target_m:
        raise ParameterOutOfRange(
            f"MAX reduction needs m <= 2 * n_sets = {target_m}; got m = {m}"
        )
    _check_reduction_size(inst, variant)
    # Element e >= m copies the memberships of element e % m.
    padded = [s.union(*(range(i + m, target_m, m) for i in s)) for s in inst.sets]
    graph, roles = _reduction_graph(3 * n_sets, padded, target_m, 1)
    params = {"w": 1, "k": 3 * n_sets, "padded_m": target_m}
    return GeneratedGame(graph, roles, None, variant, Fraction(3), params)


def _reduction_graph(k: int, sets, m: int, copies: int) -> tuple[Graph, dict]:
    """A ``k``-clique with marked node ``c = 0``, one node per set joined to
    ``c``, and ``copies`` nodes per element joined to every set holding it."""
    set_nodes = range(k, k + len(sets))
    first = k + len(sets)
    element_nodes = [tuple(range(first + i * copies, first + (i + 1) * copies)) for i in range(m)]
    edges = list(itertools.combinations(range(k), 2))
    edges.extend((0, s) for s in set_nodes)
    for node, members in zip(set_nodes, sets):
        for i in members:
            edges.extend((node, copy) for copy in element_nodes[i])
    roles = {
        "c": 0,
        "clique": tuple(range(k)),
        "set_nodes": tuple(set_nodes),
        "element_nodes": tuple(element_nodes),
    }
    return build_graph(first + m * copies, edges), roles
