"""Parameterised instance families with known game-theoretic behaviour.

Each generator returns a :class:`GeneratedGame` carrying the graph, a role
map (which node plays which part), and a suggested initial profile.  The
object unpacks like the ``(graph, roles, initial)`` tuple it replaces.
Validity checks raise :class:`ParameterOutOfRange` with the violated
inequality spelled out, so CLI users see exactly which bound they missed.
"""

from __future__ import annotations

import itertools
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
)
from .game import (
    GameConfig,
    StrategyProfile,
    Variant,
    _scan_toggles,
    ceil_div,
    floor_div,
    floor_sqrt,
    is_nash_equilibrium,
)
from .graphs import Graph, all_pairs_distances, build_graph, metrics, multi_source_levels


@dataclass(frozen=True)
class GeneratedGame:
    graph: Graph
    roles: dict
    initial: StrategyProfile | None

    def __iter__(self) -> Iterator:
        return iter((self.graph, self.roles, self.initial))


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


def _ir_cycle_structure(params: IrCycleParams) -> None:
    n, c, r = params.n, params.c, params.r
    if c < 1:
        raise ParameterOutOfRange(f"c must satisfy c >= 1; got {c}")
    if r < 0:
        raise ParameterOutOfRange(f"r must satisfy r >= 0; got {r}")
    if n - 2 * c - r - 1 < 0:
        raise ParameterOutOfRange(
            f"need n - 2c - r - 1 >= 0 pendant nodes at u; got {n - 2 * c - r - 1}"
        )


def _ir_cycle_validate(params: IrCycleParams) -> None:
    n, c, r, alpha = params.n, params.c, params.r, params.alpha
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


def gen_ir_cycle(params: IrCycleParams, *, validate: bool = True) -> GeneratedGame:
    """Double-path gadget whose four-step toggle cycle never settles.

    Node layout: ``u = 0``, path interiors, ``v = c``, more interiors,
    ``w = 2c``, then ``r`` pendants on ``w`` and the rest on ``u``.
    """
    _ir_cycle_structure(params)
    if validate:
        _ir_cycle_validate(params)
    n, c, r = params.n, params.c, params.r
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
    return GeneratedGame(graph, roles, StrategyProfile.of([w]))


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
    x_size = ceil_div(alpha / 2)
    y_size = floor_div(alpha / 2)
    u, v, w = 0, 1, 2
    x_nodes = list(range(3, 3 + x_size))
    y_nodes = list(range(3 + x_size, 3 + x_size + y_size))
    c = 3 + x_size + y_size
    n = c + 1
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
    return GeneratedGame(graph, roles, StrategyProfile.of([w]))


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
    edges = []
    next_id = 1
    path_leaves = []
    remaining = n - 1
    while remaining > 0:
        size = min(length, remaining)
        first = next_id
        edges.append((0, first))
        for i in range(first, first + size - 1):
            edges.append((i, i + 1))
        next_id = first + size
        remaining -= size
        path_leaves.append(next_id - 1)
    graph = build_graph(n, edges)
    gateway = path_leaves[0]
    roles = {
        "center": 0,
        "gateway": gateway,
        "path_leaves": tuple(path_leaves),
    }
    return GeneratedGame(graph, roles, StrategyProfile.of([gateway]))


def gen_max_line(alpha: Fraction | int) -> GeneratedGame:
    """Line on ``3*floor(alpha) + 4`` nodes that cycles under the MAX rule.

    Roles ``u``, ``v``, ``w`` sit at positions 0, ``floor(alpha) + 1`` and
    ``2*floor(alpha) + 2``.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ParameterOutOfRange(f"alpha must satisfy alpha > 1; got {alpha}")
    f = floor_div(alpha)
    n = 3 * f + 4
    graph = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    roles = {"u": 0, "v": f + 1, "w": 2 * f + 2}
    return GeneratedGame(graph, roles, StrategyProfile.of([0]))


def gen_max_poa_star(n: int) -> GeneratedGame:
    """Three paths off a center; the far leaf of the last path is the gateway."""
    if n < 7:
        raise ParameterOutOfRange(f"n must satisfy n >= 7; got {n}")
    k = (n - 1) // 3
    edges = []
    next_id = 1
    leaves = []
    for size in (k, k, n - 2 * k - 1):
        first = next_id
        edges.append((0, first))
        for i in range(first, first + size - 1):
            edges.append((i, i + 1))
        next_id = first + size
        leaves.append(next_id - 1)
    graph = build_graph(n, edges)
    gateway = leaves[-1]
    roles = {"center": 0, "gateway": gateway, "path_leaves": tuple(leaves)}
    return GeneratedGame(graph, roles, StrategyProfile.of([gateway]))


def _min_eccentricity_singleton(g: Graph, dist) -> StrategyProfile:
    best = min(range(g.n), key=lambda v: (int(dist.dist[v].max()), v))
    return StrategyProfile.of([best])


def _bfs_order(g: Graph, root: int) -> list[int]:
    from collections import deque

    order = [root]
    seen = bytearray(g.n)
    seen[root] = 1
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                order.append(v)
                queue.append(v)
    return order


def _spaced_profile(g: Graph, dist, alpha: Fraction, x1: int, x2: int, diameter: int) -> StrategyProfile:
    # Seed gateways on the radius-R rings around a peripheral pair, keeping
    # them pairwise at distance >= R, then fill distance gaps at exactly
    # ceil(alpha) until every node sits within floor(alpha) of the set.
    radius = max(floor_div(min(alpha - 1, (Fraction(diameter) - alpha) / 2)), 0)
    chosen: list[int] = []
    for root in (x1, x2):
        levels = multi_source_levels(g, (root,))
        for v in _bfs_order(g, root):
            if levels[v] != radius or v in chosen:
                continue
            if all(dist.dist_between(v, s) >= radius for s in chosen):
                chosen.append(v)
    gap = ceil_div(alpha)
    while True:
        levels = multi_source_levels(g, chosen)
        candidates = [v for v in range(g.n) if levels[v] == gap]
        if not candidates:
            break
        chosen.append(candidates[0])
    return StrategyProfile.of(chosen)


def _cover_profile(g: Graph, dist, radius: int, root: int) -> StrategyProfile:
    # Walk nodes outside-in from `root`; each node still uncovered promotes
    # its ancestor `radius` steps rootward, covering the ball around it.
    row = dist.dist[root]
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
            if dist.dist_between(cur, u) <= radius:
                covered[u] = 1
    return StrategyProfile.of(chosen)


def _close_repair(g: Graph, dist, cfg: GameConfig, s: StrategyProfile) -> StrategyProfile:
    # Shed gateways that would rather close, smallest id first.  Every applied
    # move shrinks the set, so the loop terminates; opens are the caller's problem.
    while len(s) > 1:
        toggles = _scan_toggles(dist.dist, cfg, s)
        closers = np.flatnonzero(toggles.improving & toggles.member)
        if not closers.size:
            return s
        s = s.toggled(int(closers[0]))
    return s


def _descent(g: Graph, dist, cfg: GameConfig, start: StrategyProfile, max_steps: int):
    # Steepest descent on the count of improving moves, tie-broken by the
    # mover's own gain.  Profiles are never revisited within one run.
    s = start
    seen = {s.ids}
    for _ in range(max_steps):
        unhappy = _scan_toggles(dist.dist, cfg, s).moves()
        if not unhappy:
            return s
        unhappy.sort(key=lambda m: (m.cost_delta, m.node))
        best = None
        for mv in unhappy[:6]:
            t = s.toggled(mv.node)
            if t.ids in seen:
                continue
            unhappy_after = int(_scan_toggles(dist.dist, cfg, t).improving.sum())
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
    met = metrics(g, d)
    if not 1 <= alpha < met.diameter:
        raise ParameterOutOfRange(
            f"alpha must satisfy 1 <= alpha < diameter = {met.diameter}; got {alpha}"
        )
    if met.girth < 4 * alpha:
        raise GirthTooSmall(f"girth {met.girth} is below 4*alpha = {4 * alpha}")
    cfg = GameConfig(Variant.MAX, alpha)
    x1, x2 = met.peripheral_pair
    fa = floor_div(alpha)

    def candidates() -> Iterator[StrategyProfile]:
        first = [
            _min_eccentricity_singleton(g, d),
            _spaced_profile(g, d, alpha, x1, x2, met.diameter),
        ]
        if met.diameter >= 2 * alpha:
            first.reverse()
        yield from first
        for v in sorted(range(g.n), key=lambda u: (int(d.dist[u].max()), u)):
            yield StrategyProfile.of([v])
        for radius in dict.fromkeys((fa, max(fa - 1, 1), max(fa // 2, 1))):
            for root in (x1, x2):
                cover = _cover_profile(g, d, radius, root)
                yield cover
                yield _close_repair(g, d, cfg, cover)
        yield _close_repair(g, d, cfg, first[0])
        yield _close_repair(g, d, cfg, first[1])
        rng = random.Random(0x5EED)
        for _ in range(12):
            size = rng.randrange(1, g.n + 1)
            start = StrategyProfile.of(rng.sample(range(g.n), size))
            found = _descent(g, d, cfg, start, 150)
            if found is not None:
                yield found

    tried: set[tuple[int, ...]] = set()
    for s in candidates():
        if s.ids in tried:
            continue
        tried.add(s.ids)
        if is_nash_equilibrium(g, d, cfg, s):
            return s
    raise ConstructionNotEquilibrium(
        f"no candidate profile is stable at alpha = {alpha}"
    )


@dataclass(frozen=True)
class SetCoverInstance:
    """Ground set ``[0, m)`` plus a tuple of element subsets."""

    m: int
    sets: tuple[frozenset[int], ...]
    cover_size_opt: int | None = None

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
    parts = lines[head].split()
    if len(parts) != 2:
        raise ValueError(f"expected 'm n_sets' header, got {lines[head]!r}")
    m, n_sets = int(parts[0]), int(parts[1])
    if m < 0 or n_sets < 0:
        raise ValueError(f"'m n_sets' must be non-negative, got {lines[head]!r}")
    body = lines[head + 1 : head + 1 + n_sets]
    if len(body) < n_sets:
        raise ValueError(f"expected {n_sets} set lines, found {len(body)}")
    sets = []
    for ln in body:
        elems = frozenset(int(tok) for tok in ln.split())
        for e in elems:
            if not 0 <= e < m:
                raise ValueError(f"element {e} outside [0, {m})")
        sets.append(elems)
    return SetCoverInstance(m, tuple(sets))


def min_cover_size(inst: SetCoverInstance) -> int:
    """Exhaustive minimum cover size; only intended for small instances."""
    universe = frozenset(range(inst.m))
    covered = frozenset().union(*inst.sets) if inst.sets else frozenset()
    if covered != universe:
        missing = sorted(universe - covered)
        raise ElementUncovered(f"elements {missing} appear in no set")
    for size in range(0, inst.n_sets + 1):
        for combo in itertools.combinations(range(inst.n_sets), size):
            if frozenset().union(*(inst.sets[i] for i in combo), frozenset()) == universe:
                return size
    raise AssertionError("unreachable: full collection covers the universe")


@dataclass(frozen=True)
class ReductionArtifact:
    graph: Graph
    role_map: dict
    alpha: Fraction
    params: dict
    variant: Variant
    instance: SetCoverInstance


def _check_covered(inst: SetCoverInstance) -> None:
    universe = set(range(inst.m))
    covered = set().union(*inst.sets) if inst.sets else set()
    if covered != universe:
        missing = sorted(universe - covered)
        raise ElementUncovered(f"elements {missing} appear in no set")


def reduce_set_cover(inst: SetCoverInstance, variant: Variant) -> ReductionArtifact:
    """Embed a set-cover instance as a gateway placement problem.

    SUM: a ``(m-1)``-clique with a marked node ``c``, one node per set joined
    to ``c``, and ``n_sets`` copies of every element joined to the sets that
    contain it, at price ``4 * n_sets * (m-1)``.  MAX: a ``3*n_sets``-clique,
    single element nodes, price 3; the element count is padded up to
    ``2*n_sets`` by duplicating membership patterns, and instances with more
    than ``2*n_sets`` elements are rejected.
    """
    _check_covered(inst)
    if variant is Variant.SUM:
        return _reduce_sum(inst)
    return _reduce_max(inst)


def _reduce_sum(inst: SetCoverInstance) -> ReductionArtifact:
    m, n_sets = inst.m, inst.n_sets
    if m <= 4 or n_sets <= 4:
        warnings.warn(
            "cost separation is only guaranteed for more than four sets and elements",
            stacklevel=3,
        )
    k = m - 1
    if k < 1:
        raise ParameterOutOfRange(f"need m >= 2 elements; got {m}")
    w = n_sets
    clique = list(range(k))
    c = 0
    set_nodes = list(range(k, k + n_sets))
    element_nodes = [
        [k + n_sets + i * w + j for j in range(w)] for i in range(m)
    ]
    n = k + n_sets + m * w
    edges = list(itertools.combinations(clique, 2))
    edges.extend((c, s) for s in set_nodes)
    for l, members in enumerate(inst.sets):
        for i in members:
            edges.extend((set_nodes[l], copy) for copy in element_nodes[i])
    graph = build_graph(n, edges)
    role_map = {
        "c": c,
        "clique": tuple(clique),
        "set_nodes": tuple(set_nodes),
        "element_nodes": tuple(tuple(copies) for copies in element_nodes),
    }
    alpha = Fraction(4 * n_sets * (m - 1))
    return ReductionArtifact(
        graph, role_map, alpha, {"w": w, "k": k}, Variant.SUM, inst
    )


def _reduce_max(inst: SetCoverInstance) -> ReductionArtifact:
    m, n_sets = inst.m, inst.n_sets
    target_m = 2 * n_sets
    if m < 1:
        raise ParameterOutOfRange(f"MAX reduction needs m >= 1 element; got {m}")
    if m > target_m:
        raise ParameterOutOfRange(
            f"MAX reduction needs m <= 2 * n_sets = {target_m}; got m = {m}"
        )
    padded_sets = [set(s) for s in inst.sets]
    for e in range(m, target_m):
        twin = e % m
        for s in padded_sets:
            if twin in s:
                s.add(e)
    k = 3 * n_sets
    clique = list(range(k))
    c = 0
    set_nodes = list(range(k, k + n_sets))
    element_nodes = [[k + n_sets + i] for i in range(target_m)]
    n = k + n_sets + target_m
    edges = list(itertools.combinations(clique, 2))
    edges.extend((c, s) for s in set_nodes)
    for l, members in enumerate(padded_sets):
        for i in members:
            edges.append((set_nodes[l], element_nodes[i][0]))
    graph = build_graph(n, edges)
    role_map = {
        "c": c,
        "clique": tuple(clique),
        "set_nodes": tuple(set_nodes),
        "element_nodes": tuple(tuple(copies) for copies in element_nodes),
    }
    return ReductionArtifact(
        graph,
        role_map,
        Fraction(3),
        {"w": 1, "k": k, "padded_m": target_m},
        Variant.MAX,
        inst,
    )
