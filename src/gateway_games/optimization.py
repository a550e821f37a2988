"""Exact social-optimum search, equilibrium enumeration, and price ratios.

Two search methods share one tie-break order (cost, gateway count, sorted
ids).  Full enumeration sweeps every non-empty profile; the bounded method
exploits ``c(S) >= alpha * |S|`` to cap the gateway count at ``floor(U /
alpha)`` for a feasible upper bound U, prunes whole cardinality levels with
distance lower bounds, and collapses interchangeable nodes into canonical
representatives.  Both certify an exact optimum.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _engine
from .errors import StateSpaceTooLarge
from .game import GameConfig, StrategyProfile, Variant, frac_str, social_cost
from .graphs import DistanceOracle, Graph, all_pairs_distances

# Canonical-profile count above which the bounded method refuses to start.
BOUNDED_ENUMERATION_CAP = 1 << 25


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


@dataclass(frozen=True)
class RegimeReport:
    variant: Variant
    alpha: Fraction
    n: int
    regime: str
    envelope: str
    poa: Fraction | None
    pos: Fraction | None


def _mask_ids(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _cheapest(
    masks: np.ndarray, sums: np.ndarray, counts: np.ndarray, alpha: Fraction
) -> tuple[int, Fraction]:
    """The least-cost mask and its cost ``alpha * |S| + distance sum``.

    Per gateway count k only the least distance sum ``D_k`` can win, so the
    candidates ``alpha * k + D_k`` are compared exactly as Fractions.  Ties go
    to the smaller k, then to the smallest id tuple.
    """
    lows = {int(k): int(sums[counts == k].min()) for k in np.flatnonzero(np.bincount(counts))}
    k = min(lows, key=lambda k: (alpha * k + lows[k], k))
    at_best = masks[(counts == k) & (sums == lows[k])]
    return min((int(m) for m in at_best), key=_mask_ids), alpha * k + lows[k]


def _full_enumeration(d: DistanceOracle, cfg: GameConfig) -> OptimumResult:
    total = 1 << d.graph.n
    masks = np.arange(1, total, dtype=np.int64)
    sums = _engine.term_sums_for_masks(d.dist, masks, maximum=cfg.variant is Variant.MAX)
    best, cost = _cheapest(masks, sums, np.bitwise_count(masks), cfg.alpha)
    return OptimumResult(StrategyProfile.from_mask(best), cost, FullEnumeration(), True)


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition nodes into interchangeable groups.

    Two nodes land in one group when their neighbourhoods agree outside the
    pair itself; swapping them is then a graph automorphism, so any
    permutation within a group preserves every profile cost.
    """
    neigh = [frozenset(g.adj[v]) for v in range(g.n)]
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if neigh[u] - {v} == neigh[v] - {u}:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(members)) for _, members in sorted(groups.items()))


def _level_counts(sizes: list[int], kmax: int) -> list[int]:
    """Number of canonical profiles per cardinality, via polynomial product."""
    coeffs = [1]
    for size in sizes:
        nxt = [0] * min(len(coeffs) + size, kmax + 1)
        for i, c in enumerate(coeffs):
            for t in range(size + 1):
                if i + t <= kmax:
                    nxt[i + t] += c
        coeffs = nxt
    return coeffs + [0] * (kmax + 1 - len(coeffs))


def _canonical_masks(classes: tuple[tuple[int, ...], ...], k: int) -> np.ndarray:
    """All canonical masks with exactly ``k`` gateways, as int64.

    Each twin class contributes a prefix of its sorted members.  The masks
    are built one class at a time, keeping a partial choice only while the
    classes left can still bring its gateway count to ``k``.
    """
    room = sum(map(len, classes))
    acc = np.zeros(1, dtype=np.int64)
    count = np.zeros(1, dtype=np.int64)
    for members in classes:
        room -= len(members)
        prefixes = np.cumsum([0, *(1 << v for v in members)], dtype=np.int64)
        acc = (acc[:, None] | prefixes).ravel()
        count = (count[:, None] + np.arange(len(prefixes))).ravel()
        keep = (count <= k) & (count + room >= k)
        acc, count = acc[keep], count[keep]
    return acc


def _sum_level_floor(n: int, k: int, d2: int) -> int:
    return max(0, n * (n - 1) - k * (k - 1), d2 - 2 * k * (n - 1))


def _bounded_search(
    d: DistanceOracle, cfg: GameConfig, upper_bound_profile: StrategyProfile | None
) -> OptimumResult:
    n = d.graph.n
    if n > 63:  # masks are int64
        raise StateSpaceTooLarge(f"bounded search needs n <= 63, got n = {n}")
    maximum = cfg.variant is Variant.MAX
    alpha = cfg.alpha

    seeds = [StrategyProfile.of(range(n)), StrategyProfile.of([0])]
    seeds.append(greedy_gateways(d, cfg))
    if upper_bound_profile is not None:
        seeds.append(upper_bound_profile)
    best_profile = min(
        seeds, key=lambda s: (social_cost(d, cfg, s), len(s), s.ids)
    )
    best_cost = social_cost(d, cfg, best_profile)
    best_key = (best_cost, len(best_profile), best_profile.ids)

    kmax = min(math.floor(best_cost / alpha), n)
    classes = twin_classes(d.graph)
    sizes = [len(c) for c in classes]
    counts = _level_counts(sizes, kmax)
    space = sum(counts[1 : kmax + 1])
    if space > BOUNDED_ENUMERATION_CAP:
        raise StateSpaceTooLarge(
            f"bounded search would visit {space} canonical profiles "
            f"(cap {BOUNDED_ENUMERATION_CAP}); supply a tighter upper bound"
        )

    d2 = int(np.minimum(d.dist, 2).sum()) if not maximum else 0
    for k in range(1, kmax + 1):
        floor_part = max(0, n - k) if maximum else _sum_level_floor(n, k, d2)
        if alpha * k + floor_part > best_key[0]:
            continue
        masks = _canonical_masks(classes, k)
        sums = _engine.term_sums_for_masks(d.dist, masks, maximum=maximum)
        mask, cost = _cheapest(masks, sums, np.full(len(masks), k), alpha)
        key = (cost, k, _mask_ids(mask))
        if key < best_key:
            best_key = key
            best_profile = StrategyProfile.from_mask(mask)
    return OptimumResult(best_profile, best_key[0], BoundedCardinality(kmax), True)


def brute_force_optimum(
    g: Graph,
    cfg: GameConfig,
    *,
    mode: str = "auto",
    upper_bound_profile: StrategyProfile | None = None,
    exhaustive_limit: int | None = None,
) -> OptimumResult:
    """Exact minimum social cost with a canonical witness profile.

    ``mode`` is "auto" (full sweep when the node count permits, bounded
    otherwise), "full", or "bounded".  Ties go to fewer gateways, then to
    the lexicographically smallest id tuple.
    """
    if mode not in ("auto", "full", "bounded"):
        raise ValueError(f"unknown search mode: {mode!r}")
    limit = _engine.resolve_exhaustive_limit(exhaustive_limit)
    if mode == "full" or (mode == "auto" and g.n <= limit):
        _engine.check_sweep_size(g.n, limit, "full enumeration")
        return _full_enumeration(all_pairs_distances(g), cfg)
    return _bounded_search(all_pairs_distances(g), cfg, upper_bound_profile)


def greedy_gateways(d: DistanceOracle, cfg: GameConfig) -> StrategyProfile:
    """Open the node with the largest social-cost drop until none helps.

    Starts from a single gateway; with one gateway every choice costs the
    same (one gateway creates no shortcuts), so node 0 is taken.  Ties on
    the drop go to the smallest node id.
    """
    n = d.graph.n
    current = StrategyProfile.of([0])
    cost = social_cost(d, cfg, current)
    while len(current) < n:
        best_v = -1
        best_cost = cost
        for v in range(n):
            if v in current:
                continue
            trial = social_cost(d, cfg, current.toggled(v))
            if trial < best_cost:
                best_v, best_cost = v, trial
        if best_v < 0:
            break
        current = current.toggled(best_v)
        cost = best_cost
    return current


def enumerate_equilibria(
    g: Graph, cfg: GameConfig, *, exhaustive_limit: int | None = None
) -> EquilibriumCatalog:
    """Every pure Nash equilibrium, with price of anarchy and of stability."""
    _engine.check_sweep_size(g.n, exhaustive_limit, "equilibrium enumeration")
    d = all_pairs_distances(g)
    maximum = cfg.variant is Variant.MAX
    table = _engine.term_table(d.dist, maximum=maximum)
    ne = _engine.ne_vector(*_engine.improving_tables(table, cfg.alpha))
    total = 1 << g.n
    totals = table.sum(axis=0, dtype=np.int64)
    masks = np.arange(1, total, dtype=np.int64)
    best, best_cost = _cheapest(masks, totals[1:], np.bitwise_count(masks), cfg.alpha)
    optimum = OptimumResult(
        StrategyProfile.from_mask(best), best_cost, FullEnumeration(), True
    )

    found: list[tuple[StrategyProfile, Fraction]] = []
    for m in np.flatnonzero(ne):
        mask = int(m)
        cost = cfg.alpha * mask.bit_count() + Fraction(int(totals[mask]))
        found.append((StrategyProfile.from_mask(mask), cost))
    found.sort(key=lambda pair: (pair[1], len(pair[0]), pair[0].ids))
    poa = found[-1][1] / best_cost if found else None
    pos = found[0][1] / best_cost if found else None
    return EquilibriumCatalog(tuple(found), poa, pos, optimum)


def poa_regime_report(g: Graph, cfg: GameConfig, catalog: EquilibriumCatalog) -> RegimeReport:
    """Tag the instance's price regime; the envelope is context, not a claim."""
    n = g.n
    alpha = cfg.alpha
    if cfg.variant is Variant.SUM:
        if alpha < 1:
            regime, envelope = "alpha < 1", "poa = 1"
        elif alpha <= n - 1:
            regime, envelope = "1 <= alpha <= n-1", "Theta(n / sqrt(alpha))"
        elif alpha < n * (n - 1):
            regime, envelope = "n-1 < alpha < n(n-1)", "Theta(n^2 / alpha)"
        else:
            regime, envelope = "alpha >= n(n-1)", "constant"
    else:
        if alpha < 1:
            regime, envelope = "alpha < 1", "poa = 1"
        else:
            regime, envelope = "alpha >= 1", "Theta(1 + n / sqrt(alpha))"
    return RegimeReport(cfg.variant, alpha, n, regime, envelope, catalog.poa, catalog.pos)


def catalog_to_csv(catalog: EquilibriumCatalog) -> str:
    """CSV rows ``profile,cost,is_optimal``; gateway ids space-separated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["profile", "cost", "is_optimal"])
    for profile, cost in catalog.equilibria:
        flag = "true" if cost == catalog.optimum.best_cost else "false"
        writer.writerow([" ".join(str(v) for v in profile.ids), frac_str(cost), flag])
    return buf.getvalue()
