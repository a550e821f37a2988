"""Gateway game model: costs, single-node moves, and equilibrium checks.

A strategy profile is the non-empty set of nodes currently paying to run a
gateway.  Gateways are mutually at communication distance zero, so the
distance perceived by ``u`` towards ``v`` is

    delta(u, v) = min(d(u, v), d(u, S) + d(S, v))

with plain hop distances ``d``.  Every quantity here is exact and no float is
ever produced.  A toggle changes the mover's distance term by an integer
``dv``, so whether it improves is decided in integers (``_engine._thresholds``);
``Fraction`` appears only in the returned costs and deltas.  That keeps the
knife-edge ties the dynamics depend on exact.  Every cost query reads one
profile's ``_ProfileState``, which dynamics and trace replay carry from
profile to profile.
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


# The sole gateway's close threshold in a scan: below every dv, so it never improves.
_NEVER = int(np.iinfo(np.int64).min)


class _ProfileState:
    """One profile's nearest-gateway rows on one oracle, carried across toggles.

    ``member`` marks the gateways and ``count`` counts them.  ``a[u]`` is
    u's distance to the nearest gateway, and ``base[u]`` u's base once it
    toggles: 0 for a node that would open, and for a gateway its distance to
    the nearest other gateway, or ``n``, above every distance, when it is the
    only one.  ``toggle`` keeps both rows exact: an open is one minimum with
    the opener's distance row, and a close rebuilds them from the membership,
    since the second-nearest gateway is not kept.
    """

    def __init__(self, d: DistanceOracle, s: StrategyProfile, *nodes: int):
        """Checks the ids of ``s`` and of ``nodes``, then gathers the rows."""
        n = d.graph.n
        _check_ids(n, (*s.gateways, *nodes))
        self.d = d
        self.member = np.zeros(n, dtype=bool)
        self.member[list(s.gateways)] = True
        self.count = len(s)
        self._gather()

    def _gather(self) -> None:
        """Both rows from one gather of the gateway columns.  A gateway's own
        column is masked with ``n``, so one minimum gives every other node
        its ``a`` and each gateway its base."""
        dist, n = self.d.dist, self.d.graph.n
        gates = np.flatnonzero(self.member)
        cols = dist[:, gates]
        cols[gates, np.arange(len(gates))] = n
        self.a = cols.min(axis=1)
        self.base = np.zeros_like(self.a)
        self.base[gates] = self.a[gates]
        self.a[gates] = 0

    def toggle(self, v: int) -> None:
        """Move to the profile with ``v`` toggled; closing the sole gateway raises."""
        _check_ids(len(self.member), (v,))
        if self.member[v]:
            if self.count == 1:
                raise ValueError(f"node {v} is the sole gateway and cannot close")
            self.member[v] = False
            self.count -= 1
            self._gather()
            return
        row, nearest = self.d.dist[v], self.a[v]
        np.minimum(self.a, row, out=self.a)
        np.minimum(self.base, row, out=self.base)
        self.base[v], self.a[v] = nearest, 0
        self.member[v] = True
        self.count += 1

    def scan(self, cfg: GameConfig) -> "_Toggles":
        """Score all n toggles in one numpy pass and decide them in integers.

        A toggle only moves the mover's own base (``a(u) = d(u, v)`` wherever
        v held u's nearest gateway, so that hub route never wins after a
        close).  Each node's ``dv`` is compared once with its own threshold
        from ``_thresholds``; the sole gateway's sits below every ``dv``.
        """
        maximum = cfg.variant is Variant.MAX
        dist, a = self.d.dist, self.a
        dv = _terms(dist, a, self.base, maximum) - _terms(dist, a, a, maximum)
        open_at, close_at = _thresholds(cfg.alpha)
        sole = self.count == 1
        limit = np.where(self.member, _NEVER if sole else close_at, open_at)
        return _Toggles(cfg.alpha, sole, self.member.copy(), dv, dv <= limit)


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


def private_cost(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int) -> Fraction:
    """Gateway fee (if ``v`` pays one) plus ``v``'s aggregated distances."""
    a = _ProfileState(d, s, v).a
    term = _terms(d.dist[[v]], a, a[[v]], cfg.variant is Variant.MAX)[0]
    return (cfg.alpha if v in s else Fraction(0)) + int(term)


def social_cost(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> Fraction:
    a = _ProfileState(d, s).a
    return cfg.alpha * len(s) + int(_terms(d.dist, a, a, cfg.variant is Variant.MAX).sum())


def evaluate_move(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile, v: int) -> Move:
    """Cost delta of toggling ``v``, from ``v``'s own point of view: the toggle
    scan's move for ``v``."""
    return _ProfileState(d, s, v).scan(cfg).move(v)


def improving_moves(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> list[Move]:
    """All strictly improving, permitted toggles, sorted by node id."""
    return _ProfileState(d, s).scan(cfg).moves()


def is_nash_equilibrium(d: DistanceOracle, cfg: GameConfig, s: StrategyProfile) -> bool:
    return not _ProfileState(d, s).scan(cfg).improving.any()


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
