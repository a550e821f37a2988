"""Exact social-optimum search, equilibrium enumeration, and price ratios.

Two search methods share one tie-break order (cost, gateway count, sorted
ids).  Full enumeration sweeps every non-empty profile.  The bounded method
takes the cheaper of its seeds (all nodes open and the greedy profile) as a
feasible upper bound U, and exploits ``c(S) >= alpha * |S|`` to cap the
gateway count at ``bound = floor(U / alpha)``.  It skips a whole cardinality
level k when ``alpha * k`` plus a lower bound on the distance part of every
k-gateway profile exceeds the best cost so far; ``_level_floors`` derives
those bounds from the per-profile floor below.

Levels are admitted before any mask is built: a level whose floor the seed
already beats is never built, floored, or counted against the cap.  Only
canonical profiles are built (``_canonical_masks``), each opening a prefix
of every twin class, and the levels are visited in ascending order, each
skipped once a cheaper profile beats its floor.

Within a level, every profile gets a floor of its own first
(``_engine.term_floors``), and only those that can still win are costed.
Take a k-gateway profile S, with ``a(x)`` the distance from x to its nearest
gateway:

- SUM: the part is at least ``k * sum_x a(x) + sum_{x not in S} G_x(a(x))
  - (n - k)(k - 1)``, with ``G_x(r) = sum_u min(d(x, u), r + 1)``.  A
  gateway's term is exactly ``sum_u a(u)``, since ``a(u) <= d(g, u)``.  A
  closed x is at ``a(x)`` from every gateway, at least
  ``min(d(x, u), a(x) + 1)`` from every other closed u, whose ``a(u)`` is at
  least 1, and exactly ``a(x)`` from its nearest gateway; so ``G_x(a(x))``
  overstates its term by at most 1 at each of the other ``k - 1`` gateways.
- MAX: the part is at least ``k * max_x a(x) + sum_{x not in S} max(a(x),
  min(D_x(k), a(x) + 1))``, with ``D_x(k)`` the k-th largest distance from x
  to another node.  A gateway's term is exactly ``max_u a(u)``, and a closed
  x pays ``a(x)`` to its nearest gateway.  If one of the k nodes farthest
  from x is closed, x pays at least ``min(D_x(k), a(x) + 1)`` to it;
  otherwise those k nodes are the gateways, so ``a(x) >= D_x(k)`` and the
  bound is ``a(x)``.

A level keeps the profiles whose floor is at most ``floor(best - alpha * k)``,
compared in integers, and costs only those exactly, on one row per open and
one per closed part of each class (``_engine._twin_rows``).  The comparison
is not strict, so every profile tied at the level's least cost survives and
the tie-break sees it, and the exact costing of the survivors certifies the
optimum.

The search refuses to start when the admitted levels hold more than
``BOUNDED_ENUMERATION_CAP`` canonical profiles, or more than physical memory
holds at ``_PROFILE_BYTES`` each beside ``_SEARCH_BYTES``; the best cost only
falls, so no other level is ever visited.  Both methods certify an exact
optimum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _engine
from .errors import StateSpaceTooLarge, check_memory
from .game import GameConfig, StrategyProfile, Variant, social_cost
from .graphs import DistanceOracle, Graph, all_pairs_distances

# Canonical-profile count above which the bounded method refuses to start.
BOUNDED_ENUMERATION_CAP = 1 << 25
# Peak bytes per canonical profile of the bounded search.  Building the masks:
# the int64 groups of the classes so far and those grown from them (8 each at
# most; a group is freed once no later count joins it).  Costing a level: every
# group (8), the level's keep flags (1), its survivors (8), their sums (8) and
# selection (1), 18 only when one level holds every profile and all survive.
# Tracemalloc: 13.0-14.8 building, 8.3-8.8 costing, on random graphs of 28-40
# nodes with 2.8-8.7 million canonical profiles.
_PROFILE_BYTES = 20
# Bytes beside the profiles: one chunk of the term kernel, its block of at
# most _engine._BATCH_BYTES with the gathered distances and weighted rows, or
# one chunk of the floors (tracemalloc: 0.27 MB beyond 20 bytes per profile
# on a 14-node path at alpha 30, 0.74 MB on a 16-node one at 40).
_SEARCH_BYTES = 2 << 20


@dataclass(frozen=True)
class FullEnumeration:
    """Every non-empty gateway set was costed."""


@dataclass(frozen=True)
class BoundedCardinality:
    """Canonical gateway sets of size at most ``bound`` were costed."""

    bound: int


SearchMethod = FullEnumeration | BoundedCardinality


@dataclass(frozen=True)
class OptimumResult:
    best_profile: StrategyProfile
    best_cost: Fraction
    method: SearchMethod
    certified_exact: bool


@dataclass(frozen=True)
class EquilibriumCatalog:
    """All pure Nash equilibria with exact costs, plus both price ratios.

    ``poa`` and ``pos`` are None when the instance has no equilibrium at all.
    """

    equilibria: tuple[tuple[StrategyProfile, Fraction], ...]
    poa: Fraction | None
    pos: Fraction | None
    optimum: OptimumResult


def _least_ids(masks: np.ndarray) -> int:
    """The mask with the smallest id tuple among masks of one gateway count:
    walking the bits up from bit 0 and keeping the masks that hold each bit,
    whenever any do, leaves exactly that one."""
    bit = 0
    while len(masks) > 1:
        held = masks[(masks >> bit) & 1 == 1]
        if len(held):
            masks = held
        bit += 1
    return int(masks[0])


def _full_optimum(sums: np.ndarray, alpha: Fraction) -> OptimumResult:
    """The full enumeration's result from the distance sums of every mask, shape (2^n,).

    Per gateway count k only the least distance sum ``D_k`` can win.  With
    ``alpha = num / den`` the candidates ``alpha * k + D_k`` are compared as
    the integers ``num * k + den * D_k``, as ``enumerate_equilibria`` orders
    its costs, and one Fraction is formed, for the result; ties go to the
    smaller k, then to the smallest id tuple.  The index is the mask, and its
    gateway count comes from a uint8 popcount table.
    """
    n = sums.shape[0].bit_length() - 1
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate((counts, counts + 1))
    lows = np.full(n + 1, np.iinfo(sums.dtype).max, dtype=sums.dtype)  # ufunc.at is slow across dtypes
    np.minimum.at(lows, counts, sums)
    num, den = alpha.numerator, alpha.denominator
    scaled, k = min((num * k + den * low, k) for k, low in enumerate(lows.tolist()) if k)
    at_best = counts == k
    at_best &= sums == lows[k]
    best = StrategyProfile.from_mask(_least_ids(np.flatnonzero(at_best)))
    return OptimumResult(best, Fraction(scaled, den), FullEnumeration(), True)


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition nodes into interchangeable groups, sorted by smallest member.

    Two nodes are twins when their neighbourhoods agree outside the pair, so
    swapping them is a graph automorphism that preserves every profile cost.
    Non-adjacent twins share ``N(v)``, adjacent ones ``N[v]``.  No node has
    twins of both kinds (``N(u) = N(v)`` and ``N[u] = N[w]`` would put ``v``
    in ``N[w] = N[u]``), and no ``N(v)`` is an ``N[w]`` (it would hold ``w``,
    hence ``v``), so grouping each node by the key it shares gives the classes.
    """
    opened = [frozenset(a) for a in g.adj]
    closed = [nbrs | {v} for v, nbrs in enumerate(opened)]
    shared = Counter(opened)
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        key = opened[v] if shared[opened[v]] > 1 else closed[v]
        groups.setdefault(key, []).append(v)
    return tuple(map(tuple, groups.values()))  # in order of each group's first member


def _level_counts(sizes: list[int], kmax: int) -> list[int]:
    """Number of canonical profiles per cardinality ``0..kmax``: the
    coefficients of the product of ``1 + x + ... + x^s`` over the class sizes
    ``s``, each at most ``C(63, 31) < 2^63``."""
    coeffs = np.zeros(kmax + 1, dtype=np.int64)
    coeffs[0] = 1
    for size in sizes:
        coeffs = np.convolve(coeffs, np.ones(size + 1, dtype=np.int64))[: kmax + 1]
    return coeffs.tolist()


def _canonical_masks(
    classes: tuple[tuple[int, ...], ...], levels: list[int]
) -> dict[int, np.ndarray]:
    """Every canonical mask whose gateway count is in ``levels``, as int64,
    keyed by that count, from one pass.

    Each twin class contributes a prefix of its sorted members.  The masks
    are built one class at a time and kept grouped by gateway count: the
    group of count ``c`` is written slice by slice, from each group of count
    ``c - t`` joined with the class's ``t``-member prefix, and kept only while
    the classes left can still bring ``c`` to a level in ``levels``.
    """
    room = sum(map(len, classes))
    groups = {0: np.zeros(1, dtype=np.int64)}
    for members in classes:
        room -= len(members)
        prefixes = list(itertools.accumulate((1 << v for v in members), initial=0))
        grown = {}
        for count in range(max(groups) + len(members) + 1):
            joined = [(groups[count - t], p) for t, p in enumerate(prefixes) if count - t in groups]
            if any(count <= k <= count + room for k in levels):
                out = grown[count] = np.empty(sum(len(g) for g, _ in joined), dtype=np.int64)
                start = 0
                for group, prefix in joined:
                    np.bitwise_or(group, prefix, out=out[start : start + len(group)])
                    start += len(group)
            groups.pop(count - len(members), None)  # no later count joins it
        groups = grown
    return groups


def _level_floors(dist: np.ndarray, kmax: int, maximum: bool) -> list[int]:
    """Lower bounds on the distance part of every profile with ``k`` gateways,
    for ``k = 0..kmax``, from one pass over the distances.

    SUM: each ordered pair of distinct nodes, not both gateways, is at least
    one apart.  A pair of closed nodes is at least ``min(d, 2)`` apart, so
    ``d2``, the sum of ``min(d, 2)`` over all pairs, overstates only pairs
    with a gateway in them: by at most 1 for a gateway and a node two or more
    hops away, 0 for a neighbour, and ``min(d, 2)`` for two gateways.  That
    totals ``2 sum_g far(g) + adj(S)``, with ``far(g) = n - 1 - deg(g)`` and
    ``adj(S)`` the ordered adjacent pairs of gateways, at most
    ``sum_g min(deg(g), k - 1)``.  So the part is at least ``d2 - 2k(n - 1)``
    plus ``sum_g (2 deg(g) - min(deg(g), k - 1))``, which grows with each
    degree, so the k least degrees bound it from below.  And the per-profile
    floor grows with each closed node's ``a(x) >= 1``, which makes it at least
    ``(n - k) + sum_{x not in S} G_x(1)`` (the closed nodes' ``k * a(x)`` give
    ``k(n - k)``, less ``(n - k)(k - 1)``), with ``G_x(1)`` the row sum of
    ``min(d, 2)``; the ``n - k`` least row sums bound that from below.
    MAX: with a node closed, every node has a closed node at least one away,
    so every node pays at least 1.  A closed node x with ``far(x) >= k``, so
    ``D_x(k) >= 2``, pays at least 2: a closed node two or more hops away
    reaches the hub in one hop or more, and if the k nodes that far are all
    gateways, ``a(x) >= 2``.  At most ``k`` such nodes are gateways, so at
    least ``#{v : far(v) >= k} - k`` nodes pay 2.
    """
    n = dist.shape[0]
    ks = range(kmax + 1)
    if not maximum:
        near = np.minimum(dist, 2).sum(axis=1)
        d2 = int(near.sum())
        # least[j] = the sum of the j least row sums of min(d, 2)
        least = np.concatenate(([0], np.cumsum(np.sort(near)))).tolist()
        degrees = sorted(np.count_nonzero(dist == 1, axis=1).tolist())
        return [
            max(
                n * (n - 1) - k * (k - 1),
                d2 - 2 * k * (n - 1) + sum(2 * g - min(g, k - 1) for g in degrees[:k]),
                n - k + least[n - k],
            )
            for k in ks
        ]
    far = np.count_nonzero(dist >= 2, axis=1)
    # reach[k] = #{v : far(v) >= k}; far(v) <= n - 1, so reach[n] = 0.
    reach = n - np.concatenate(([0], np.cumsum(np.bincount(far, minlength=n))))
    return [0 if k == n else n + max(0, int(reach[k]) - k) for k in ks]


def _bounded_search(d: DistanceOracle, cfg: GameConfig) -> OptimumResult:
    n = d.graph.n
    if n > 63:  # masks are int64
        raise StateSpaceTooLarge(f"bounded search needs n <= 63, got n = {n}")
    maximum = cfg.variant is Variant.MAX
    alpha = cfg.alpha

    # Greedy starts at {0} and opens only at a strict gain, so it beats or is {0}.
    seeds = [StrategyProfile.of(range(n)), greedy_gateways(d, cfg)]
    best_key = min((social_cost(d, cfg, s), len(s), s.ids) for s in seeds)

    kmax = min(math.floor(best_key[0] / alpha), n)
    floors = _level_floors(d.dist, kmax, maximum)
    # The best cost only falls, so a level the seed prunes stays pruned.
    levels = [k for k in range(1, kmax + 1) if alpha * k + floors[k] <= best_key[0]]
    classes = twin_classes(d.graph)
    per_level = _level_counts([len(c) for c in classes], kmax)
    space = sum(per_level[k] for k in levels)
    if space > BOUNDED_ENUMERATION_CAP:
        raise StateSpaceTooLarge(
            f"bounded search would visit {space} canonical profiles "
            f"(cap {BOUNDED_ENUMERATION_CAP})"
        )
    claim = f"bounded search over {space} canonical profiles needs"
    check_memory(space * _PROFILE_BYTES + _SEARCH_BYTES, StateSpaceTooLarge, claim)

    by_level = _canonical_masks(classes, levels)
    layout = _engine._SearchLayout(d.dist, classes, maximum)
    for k in levels:
        level = by_level.pop(k)
        if alpha * k + floors[k] > best_key[0]:
            continue
        limit = math.floor(best_key[0] - alpha * k)
        keep = np.empty(level.shape[0], dtype=bool)
        for columns, low in _engine.term_floors(layout, level, k):
            np.less_equal(low, limit, out=keep[columns])
        level = level[keep]
        if not level.shape[0]:
            continue
        sums = _engine.term_sums_for_masks(layout, level)
        low = sums.min()
        ids = StrategyProfile.from_mask(_least_ids(level[sums == low])).ids
        best_key = min(best_key, (alpha * k + int(low), k, ids))
    best = StrategyProfile.of(best_key[2])
    return OptimumResult(best, best_key[0], BoundedCardinality(kmax), True)


def brute_force_optimum(
    g: Graph, cfg: GameConfig, *, exhaustive_limit: int | None = None
) -> OptimumResult:
    """Exact minimum social cost with a canonical witness profile.

    A full sweep when the node count is within the exhaustive limit, the
    bounded search otherwise, so ``exhaustive_limit=0`` always runs the
    bounded search.  Ties go to fewer gateways, then to the lexicographically
    smallest id tuple.
    """
    limit = _engine._exhaustive_limit(exhaustive_limit)
    if g.n <= limit:
        _engine.check_sweep_size(g.n, limit, "full enumeration", _engine._OPTIMUM_BYTES)
        sums = _engine.term_sums(all_pairs_distances(g).dist, maximum=cfg.variant is Variant.MAX)
        return _full_optimum(sums, cfg.alpha)
    return _bounded_search(all_pairs_distances(g), cfg)


def greedy_gateways(d: DistanceOracle, cfg: GameConfig) -> StrategyProfile:
    """Open the node with the largest social-cost drop until none helps.

    Starts from a single gateway; with one gateway every choice costs the
    same (one gateway creates no shortcuts), so node 0 is taken.  Ties on
    the drop go to the smallest node id.  Each step forms the distance parts
    of every one-node extension in one batch; they all pay one more ``alpha``,
    so the least part wins, and it helps iff ``alpha`` plus its integer
    change is negative, the rule of an improving open.
    """
    n = d.graph.n
    maximum = cfg.variant is Variant.MAX
    open_at = _engine._thresholds(cfg.alpha)[0]
    dist = d.dist[:, :, None]
    a = d.dist[:, 0].copy()
    part = int(_engine._terms(d.dist, a, a, maximum).sum())
    gates = [0]
    step = _engine._chunk_masks(d.dist)
    while len(gates) < n:
        closed = np.setdiff1d(np.arange(n), gates)
        parts = np.empty(len(closed), dtype=np.int64)
        for start in range(0, len(closed), step):
            batch = np.minimum(a[:, None], d.dist[:, closed[start : start + step]])
            terms = _engine._terms(dist, batch, batch, maximum)
            parts[start : start + step] = terms.sum(axis=0)
        best = int(np.argmin(parts))
        if int(parts[best]) - part > open_at:
            break
        v = int(closed[best])
        gates.append(v)
        np.minimum(a, d.dist[:, v], out=a)
        part = int(parts[best])
    return StrategyProfile.of(gates)


def enumerate_equilibria(
    g: Graph, cfg: GameConfig, *, exhaustive_limit: int | None = None
) -> EquilibriumCatalog:
    """Every pure Nash equilibrium, with price of anarchy and of stability."""
    maximum = cfg.variant is Variant.MAX
    _engine.check_sweep_size(g.n, exhaustive_limit, "equilibrium enumeration")
    d = all_pairs_distances(g)
    bytes_each = _engine._table_bytes(d.dist, maximum)
    _engine.check_sweep_size(g.n, exhaustive_limit, "equilibrium enumeration", bytes_each)
    table = _engine.term_table(d.dist, maximum=maximum)
    _, masks = _engine._sinks(_engine.improving_tables(table, cfg.alpha))
    totals = table.sum(axis=0, dtype=np.int32)  # at most n^2 (n - 1)
    del table  # before the optimum's temporaries
    optimum = _full_optimum(totals, cfg.alpha)

    # With alpha = num / den, a cost times den is the integer num * k + den * T,
    # so the order is exact in integers; each Fraction is formed once, for the catalogue.
    num, den = cfg.alpha.numerator, cfg.alpha.denominator
    keyed = []
    for mask, total in zip(masks.tolist(), totals[masks].tolist()):
        profile = StrategyProfile.from_mask(mask)
        keyed.append((num * len(profile) + den * total, len(profile), profile.ids, profile))
    keyed.sort(key=lambda entry: entry[:3])
    found = [(profile, Fraction(scaled, den)) for scaled, _, _, profile in keyed]
    poa = found[-1][1] / optimum.best_cost if found else None
    pos = found[0][1] / optimum.best_cost if found else None
    return EquilibriumCatalog(tuple(found), poa, pos, optimum)


def poa_regime(n: int, cfg: GameConfig) -> tuple[str, str]:
    """``(regime, envelope)``: the price regime of an ``n``-node instance and
    the paper's PoA envelope there; the envelope is context, not a claim."""
    alpha = cfg.alpha
    if alpha < 1:
        return "alpha < 1", "poa = 1"
    if cfg.variant is Variant.MAX:
        return "alpha >= 1", "Theta(1 + n / sqrt(alpha))"
    if alpha <= n - 1:
        return "1 <= alpha <= n-1", "Theta(n / sqrt(alpha))"
    if alpha < n * (n - 1):
        return "n-1 < alpha < n(n-1)", "Theta(n^2 / alpha)"
    return "alpha >= n(n-1)", "constant"

