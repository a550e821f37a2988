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
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Collection, Iterable

import numpy as np

from ._engine import _terms, _thresholds
from .errors import NodeIdOutOfRange
from .graphs import DistanceOracle


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


def _check_ids(n: int, ids: Collection[int], what: str = "node") -> None:
    """Refuse any id outside ``[0, n)``, from one min and one max over ``ids``;
    the message names the first such id in the order of ``ids``."""
    if ids and (min(ids) < 0 or max(ids) >= n):
        bad = next(v for v in ids if not 0 <= v < n)
        raise NodeIdOutOfRange(f"{what} {bad} outside [0, {n})")


def _profile(
    d: DistanceOracle, s: StrategyProfile, *nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gates, a, base)`` from one gather of the gateway columns, after
    checking the ids of ``s`` and of ``nodes``: the gateways, each node's
    distance to the nearest of them, and each node's base once it toggles
    (see ``_scan_toggles``).  A gateway's own column is masked with ``n``, so
    one minimum gives every other node its ``a`` and each gateway its
    distance to the nearest other gateway, or ``n`` when it is the only one."""
    n = d.graph.n
    _check_ids(n, (*s.gateways, *nodes))
    gates = np.fromiter(s.gateways, dtype=np.intp, count=len(s))
    cols = d.dist[:, gates]
    cols[gates, np.arange(len(gates))] = n
    a = cols.min(axis=1)
    base = np.zeros_like(a)
    base[gates] = a[gates]
    a[gates] = 0
    return gates, a, base


@dataclass(frozen=True, eq=False)
class _Toggles:
    """Every node's toggle; ``dv[v]`` is v's distance term after minus before."""

    alpha: Fraction
    sole: bool
    member: np.ndarray
    dv: np.ndarray
    improving: np.ndarray

    def move(self, v: int) -> Move:
        return _move(self.alpha, self.sole, bool(self.member[v]), v, int(self.dv[v]))

    def moves(self) -> list[Move]:
        return [self.move(int(v)) for v in np.flatnonzero(self.improving)]


def _move(alpha: Fraction, sole: bool, member: bool, v: int, dv: int) -> Move:
    if member:
        return Move(v, MoveKind.CLOSE, dv - alpha, forbidden=sole)
    return Move(v, MoveKind.OPEN, alpha + dv)


def _scan_toggles(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> _Toggles:
    """Score all n toggles in one numpy pass and decide them in integers.

    A toggle only moves the mover's own base: 0 once it opens, its distance
    to the nearest other gateway once it closes (``a(u) = d(u, v)`` wherever
    v held u's nearest gateway, so that hub route never wins), and ``n``,
    above every distance, for the sole gateway's close.
    """
    gates, a, base = _profile(d, s)
    member = np.zeros(len(a), dtype=bool)
    member[gates] = True
    sole = len(gates) == 1
    maximum = cfg.variant is Variant.MAX
    dv = _terms(d.dist, a, base, maximum) - _terms(d.dist, a, a, maximum)
    open_at, close_at = _thresholds(cfg.alpha)
    improving = np.where(member, (dv <= close_at) & (not sole), dv <= open_at)
    return _Toggles(cfg.alpha, sole, member, dv, improving)


def comm_distance(d: DistanceOracle, s: StrategyProfile, u: int, v: int) -> int:
    """delta(u, v) under profile ``s``: plain distance or a hop through the gateway set."""
    a = _profile(d, s, u, v)[1]
    return int(min(d.dist[u, v], a[u] + a[v]))


def private_cost(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int) -> Fraction:
    """Gateway fee (if ``v`` pays one) plus ``v``'s aggregated distances."""
    a = _profile(d, s, v)[1]
    term = _terms(d.dist[[v]], a, a[[v]], cfg.variant is Variant.MAX)[0]
    return (cfg.alpha if v in s else Fraction(0)) + int(term)


def social_cost(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> Fraction:
    a = _profile(d, s)[1]
    return cfg.alpha * len(s) + int(_terms(d.dist, a, a, cfg.variant is Variant.MAX).sum())


def evaluate_move(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int) -> Move:
    """Cost delta of toggling ``v``, from ``v``'s own point of view.

    Forms only ``v``'s terms before and after, with the formula and bases of
    ``_scan_toggles``: one row of distances where the scan reads the whole
    matrix twice.
    """
    gates, a, base = _profile(d, s, v)
    row, mover = d.dist[v : v + 1], slice(v, v + 1)
    maximum = cfg.variant is Variant.MAX
    dv = _terms(row, a, base[mover], maximum)[0] - _terms(row, a, a[mover], maximum)[0]
    return _move(cfg.alpha, len(gates) == 1, v in s, v, int(dv))


def improving_moves(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> list[Move]:
    """All strictly improving, permitted toggles, sorted by node id."""
    return _scan_toggles(d, cfg, s).moves()


def is_nash_equilibrium(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> bool:
    return not _scan_toggles(d, cfg, s).improving.any()


def frac_str(x: Fraction | int) -> str:
    """Render an exact rational as ``p/q``, denominator always present."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def floor_sqrt(x: Fraction | int) -> int:
    """Largest integer ``k`` with ``k*k <= x``, exact for rationals."""
    f = Fraction(x)
    if f < 0:
        raise ValueError("square root of a negative value")
    return math.isqrt(f.numerator // f.denominator)
