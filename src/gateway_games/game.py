"""Gateway game model: costs, single-node moves, and equilibrium checks.

A strategy profile is the non-empty set of nodes currently paying to run a
gateway.  Gateways are mutually at communication distance zero, so the
distance perceived by ``u`` towards ``v`` is

    delta(u, v) = min(d(u, v), d(u, S) + d(S, v))

with plain hop distances ``d``.  Every quantity here is exact and no float is
ever produced.  A toggle changes the mover's distance term by an integer
``dv``, so whether it improves is decided in integers against ``floor`` and
``ceil`` of ``alpha``; ``Fraction`` appears only in the returned costs and
deltas.  That keeps the knife-edge ties the dynamics depend on exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, unique
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NodeIdOutOfRange
from .graphs import DistanceOracle, Graph, _check_oracle


@unique
class Variant(Enum):
    """Aggregation rule for a node's distance term."""

    SUM = "sum"
    MAX = "max"


@dataclass(frozen=True)
class GameConfig:
    """Variant plus the gateway price ``alpha`` (a positive exact rational)."""

    variant: Variant
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class StrategyProfile:
    """Non-empty set of gateway nodes.

    The all-closed profile is unrepresentable by construction; sole-gateway
    closes are handled as forbidden moves rather than as a reachable state.
    """

    gateways: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gateways", frozenset(self.gateways))
        if not self.gateways:
            raise ValueError("a strategy profile must contain at least one gateway")

    @classmethod
    def of(cls, nodes: Iterable[int]) -> "StrategyProfile":
        return cls(frozenset(int(v) for v in nodes))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.gateways))

    def mask(self) -> int:
        return sum(1 << v for v in self.gateways)

    @classmethod
    def from_mask(cls, mask: int) -> "StrategyProfile":
        if mask <= 0:
            raise ValueError("profile mask must be non-zero")
        return cls(frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))

    def toggled(self, v: int) -> "StrategyProfile":
        return StrategyProfile(self.gateways ^ {v})

    def __contains__(self, v: int) -> bool:
        return v in self.gateways

    def __len__(self) -> int:
        return len(self.gateways)

    def __iter__(self):
        return iter(sorted(self.gateways))


@unique
class MoveKind(Enum):
    OPEN = "open"
    CLOSE = "close"


@dataclass(frozen=True)
class Move:
    """One node's toggle, evaluated against the current profile.

    ``cost_delta`` is the mover's private cost after minus before, so a
    strictly negative delta means the move is improving.  A close by the
    sole gateway keeps ``kind == CLOSE`` and a meaningful delta (computed
    against the gateway-free world of plain distances) but carries
    ``forbidden=True`` and is never offered by the dynamics.
    """

    node: int
    kind: MoveKind
    cost_delta: Fraction
    forbidden: bool = False

    @property
    def is_improving(self) -> bool:
        return self.cost_delta < 0 and not self.forbidden


@dataclass(frozen=True)
class CostReport:
    private: dict[int, Fraction] = field(compare=False)
    social: Fraction = Fraction(0)


def _check_node(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise NodeIdOutOfRange(f"node {v} outside [0, {g.n})")


def _check(g: Graph, d: DistanceOracle, s: StrategyProfile, *nodes: int) -> None:
    _check_oracle(g, d)
    for v in (*s.gateways, *nodes):
        _check_node(g, v)


def _terms(dist: np.ndarray, a: np.ndarray, base: np.ndarray, cfg: GameConfig, rows=slice(None)):
    """agg_u min(d(v, u), base(v) + a(u)) per ``v`` in ``rows``, where ``a(u)`` is
    the distance to the nearest gateway; ``base = a[rows]`` gives the terms now."""
    through = base[:, None] + a
    np.minimum(through, dist[rows], out=through)
    return through.max(axis=1) if cfg.variant is Variant.MAX else through.sum(axis=1)


@dataclass(frozen=True, eq=False)
class _Toggles:
    """Every node's toggle; ``dv[v]`` is v's distance term after minus before."""

    alpha: Fraction
    sole: bool
    member: np.ndarray
    dv: np.ndarray
    improving: np.ndarray

    def move(self, v: int) -> Move:
        dv = int(self.dv[v])
        if self.member[v]:
            return Move(v, MoveKind.CLOSE, dv - self.alpha, forbidden=self.sole)
        return Move(v, MoveKind.OPEN, self.alpha + dv)

    def moves(self) -> list[Move]:
        return [self.move(int(v)) for v in np.flatnonzero(self.improving)]


def _scan_toggles(dist: np.ndarray, cfg: GameConfig, s: StrategyProfile) -> _Toggles:
    """Score all n toggles in one numpy pass and decide them in integers.

    A toggle only moves the mover's own base: 0 once it opens, its distance
    to the nearest other gateway once it closes (``a(u) = d(u, v)`` wherever
    v held u's nearest gateway, so that hub route never wins), and ``n``,
    above every distance, for the sole gateway's close.
    """
    n = dist.shape[0]
    gates = np.fromiter(s.gateways, dtype=np.intp, count=len(s))
    a = dist[:, gates].min(axis=1)
    member = np.zeros(n, dtype=bool)
    member[gates] = True
    sole = len(gates) == 1
    base = np.zeros(n, dtype=dist.dtype)
    base[gates] = n if sole else np.partition(dist[np.ix_(gates, gates)], 1, axis=1)[:, 1]
    dv = _terms(dist, a, base, cfg) - _terms(dist, a, a, cfg)
    # alpha + dv < 0 opens, dv - alpha < 0 closes; clamped to int64 (|dv| <= n * diameter).
    open_at = max(-(floor_div(cfg.alpha) + 1), -(1 << 62))
    close_at = min(ceil_div(cfg.alpha) - 1, 1 << 62)
    improving = np.where(member, (dv <= close_at) & (not sole), dv <= open_at)
    return _Toggles(cfg.alpha, sole, member, dv, improving)


def comm_distance(g: Graph, d: DistanceOracle, s: StrategyProfile, u: int, v: int) -> int:
    """delta(u, v) under profile ``s``: plain distance or a hop through the gateway set."""
    _check(g, d, s, u, v)
    a = d.dist[:, list(s.gateways)].min(axis=1)
    return min(d.dist_between(u, v), int(a[u] + a[v]))


def private_cost(
    g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int
) -> Fraction:
    """Gateway fee (if ``v`` pays one) plus ``v``'s aggregated distances."""
    _check(g, d, s, v)
    a = d.dist[:, list(s.gateways)].min(axis=1)
    return (cfg.alpha if v in s else Fraction(0)) + int(_terms(d.dist, a, a[[v]], cfg, [v])[0])


def social_cost(g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> Fraction:
    _check(g, d, s)
    a = d.dist[:, list(s.gateways)].min(axis=1)
    return cfg.alpha * len(s) + int(_terms(d.dist, a, a, cfg).sum())


def cost_report(g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> CostReport:
    _check(g, d, s)
    a = d.dist[:, list(s.gateways)].min(axis=1)
    terms = _terms(d.dist, a, a, cfg)
    private = {v: (cfg.alpha if v in s else Fraction(0)) + int(terms[v]) for v in range(g.n)}
    return CostReport(private=private, social=sum(private.values(), Fraction(0)))


def evaluate_move(
    g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int
) -> Move:
    """Cost delta of toggling ``v``, from ``v``'s own point of view."""
    _check(g, d, s, v)
    return _scan_toggles(d.dist, cfg, s).move(v)


def improving_moves(
    g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile
) -> list[Move]:
    """All strictly improving, permitted toggles, sorted by node id."""
    _check(g, d, s)
    return _scan_toggles(d.dist, cfg, s).moves()


def is_nash_equilibrium(g: Graph, d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> bool:
    _check(g, d, s)
    return not _scan_toggles(d.dist, cfg, s).improving.any()


def frac_str(x: Fraction | int) -> str:
    """Render an exact rational as ``p/q``, denominator always present."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Accepts ``p/q``, integers, and exact decimal strings like ``3.5``."""
    return Fraction(text.strip())


def floor_div(x: Fraction | int) -> int:
    return math.floor(Fraction(x))


def ceil_div(x: Fraction | int) -> int:
    return math.ceil(Fraction(x))


def floor_sqrt(x: Fraction | int) -> int:
    """Largest integer ``k`` with ``k*k <= x``, exact for rationals."""
    f = Fraction(x)
    if f < 0:
        raise ValueError("square root of a negative value")
    return math.isqrt(f.numerator // f.denominator)


def ceil_sqrt(x: Fraction | int) -> int:
    """Smallest integer ``k`` with ``k*k >= x``."""
    f = Fraction(x)
    k = floor_sqrt(f)
    return k if Fraction(k * k) == f else k + 1
