"""Improving-response dynamics and the full state-space classifier.

A scheduler picks which strictly improving toggle fires next.  Traces record
the profile before each move together with the move itself, so a run can be
replayed and re-audited move by move.  The classifier sweeps all ``2^n - 1``
profiles to decide whether improving paths always terminate (``FIP``), can
always be steered to an equilibrium (``WEAKLY_ACYCLIC``), or can get trapped
with no equilibrium reachable at all (``NOT_WEAKLY_ACYCLIC``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Union

import numpy as np

from . import _engine
from .game import (
    GameConfig,
    Move,
    MoveKind,
    StrategyProfile,
    Variant,
    _check_ids,
    _ProfileState,
    _Toggles,
    evaluate_move,  # noqa: F401  bound only for perfbench/test_tracer.py's rebinding check
)
from .graphs import Graph, all_pairs_distances


@dataclass(frozen=True)
class RoundRobin:
    """Cyclic ascending-id scan; fires the first improving toggle found."""


@dataclass(frozen=True)
class RandomSeeded:
    """Uniform choice among the improving toggles, driven by a fixed seed."""

    seed: int


@dataclass(frozen=True)
class BestGain:
    """Most negative cost delta; ties broken by open-before-close, then id."""


@dataclass(frozen=True)
class FixedSequence:
    """Cycles a fixed node list, skipping entries with nothing to gain."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        nodes = tuple(int(v) for v in self.nodes)
        if not nodes:
            raise ValueError("fixed sequence must name at least one node")
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class OpensOnly:
    """Only listed nodes may move, and only by opening; smallest id first."""

    nodes: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(int(v) for v in self.nodes))


Scheduler = Union[RoundRobin, RandomSeeded, BestGain, FixedSequence, OpensOnly]


@dataclass(frozen=True)
class ConvergedToNE:
    profile: StrategyProfile


@dataclass(frozen=True)
class CycleDetected:
    entry_index: int
    period: int


@dataclass(frozen=True)
class BudgetExhausted:
    pass


@dataclass(frozen=True)
class Stalled:
    """A restricted scheduler ran dry on a profile that is not an equilibrium."""

    profile: StrategyProfile


Outcome = Union[ConvergedToNE, CycleDetected, BudgetExhausted, Stalled]


@dataclass(frozen=True)
class DynamicsTrace:
    initial: StrategyProfile
    steps: tuple[tuple[StrategyProfile, Move], ...]
    outcome: Outcome

    @property
    def final(self) -> StrategyProfile:
        if not self.steps:
            return self.initial
        state, move = self.steps[-1]
        return state.toggled(move.node)

    def states(self) -> list[StrategyProfile]:
        """The visited profiles, initial state first."""
        out = [self.initial]
        for state, move in self.steps:
            out.append(state.toggled(move.node))
        return out


def default_step_budget(n: int) -> int:
    return min(10 * (1 << n), 10**6)


class _Picker:
    def __init__(self, n: int, scheduler: Scheduler):
        # In the order each scheduler walks its nodes, so the first bad one is named.
        if isinstance(scheduler, FixedSequence):
            _check_ids(n, scheduler.nodes)
        if isinstance(scheduler, OpensOnly):
            self.opens = sorted(scheduler.nodes)
            _check_ids(n, self.opens)
        self.n = n
        self.scheduler = scheduler
        self.cursor = 0
        self.rng = random.Random(scheduler.seed) if isinstance(scheduler, RandomSeeded) else None

    def pick(self, toggles: _Toggles) -> Move | None:
        """The scheduler's move among the scanned ``toggles``, or None."""
        sched = self.scheduler
        improving = toggles.improving
        if isinstance(sched, FixedSequence):
            length = len(sched.nodes)
            for offset in range(length):
                i = (self.cursor + offset) % length
                v = sched.nodes[i]
                if improving[v]:
                    self.cursor = (i + 1) % length
                    return toggles.move(v)
            return None
        if isinstance(sched, OpensOnly):
            for v in self.opens:
                if not toggles.member[v] and improving[v]:
                    return toggles.move(v)
            return None
        hits = np.flatnonzero(improving)
        if not hits.size:
            return None
        if isinstance(sched, RoundRobin):
            later = hits[hits >= self.cursor]
            v = int(later[0] if later.size else hits[0])
            self.cursor = (v + 1) % self.n
            return toggles.move(v)
        if isinstance(sched, RandomSeeded):
            return toggles.move(self.rng.choice(hits.tolist()))
        # BestGain: largest strict gain wins.  Within opens, and within
        # closes, the price is common, so the smallest dv (first id on ties)
        # is that side's best; only the two winners meet as Fractions.
        best = []
        for side in (~toggles.member, toggles.member):
            cand = hits[side[hits]]
            if cand.size:
                best.append(toggles.move(int(cand[toggles.dv[cand].argmin()])))
        return min(
            best,
            key=lambda m: (m.cost_delta, 0 if m.kind is MoveKind.OPEN else 1, m.node),
        )


def run_dynamics(
    g: Graph,
    cfg: GameConfig,
    s0: StrategyProfile,
    scheduler: Scheduler,
    max_steps: int | None = None,
) -> DynamicsTrace:
    """Iterate single improving toggles from ``s0`` until something gives.

    Stops at an equilibrium, at the first revisited profile (reporting where
    the loop was entered and its period), when the restricted scheduler has
    no move left on a non-equilibrium profile, or when the step budget runs
    out.  The default budget is ``min(10 * 2^n, 10^6)``; a negative budget
    raises ``ValueError``.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    _check_ids(g.n, s0.gateways, "initial gateway")  # before the oracle is built
    d = all_pairs_distances(g)
    budget = default_step_budget(g.n) if max_steps is None else max_steps
    picker = _Picker(g.n, scheduler)
    carried = _ProfileState(d, s0)
    seen = {s0: 0}
    steps: list[tuple[StrategyProfile, Move]] = []
    state = s0
    while True:
        toggles = carried.scan(cfg)
        move = picker.pick(toggles)
        if move is None:
            # Only a restricted scheduler passes over an improving toggle.
            stalled = toggles.improving.any()
            outcome: Outcome = Stalled(state) if stalled else ConvergedToNE(state)
            break
        if len(steps) >= budget:
            outcome = BudgetExhausted()
            break
        steps.append((state, move))
        state = state.toggled(move.node)
        carried.toggle(move.node)
        previous = seen.get(state)
        if previous is not None:
            outcome = CycleDetected(previous, len(steps) - previous)
            break
        seen[state] = len(steps)
    return DynamicsTrace(s0, tuple(steps), outcome)


def replay_trace(g: Graph, cfg: GameConfig, trace: DynamicsTrace) -> list[StrategyProfile]:
    """Re-evaluate every recorded move; raises ``ValueError`` on any mismatch.

    The initial ids and every recorded node are checked before the oracle is
    built.  One state, built from ``trace.initial``, follows the trace in
    blocks of at most ``n // 4`` steps, each checked by ``_replay_block``, and
    the first step that fails raises.  A claimed equilibrium or stall is
    checked against the scan of the final profile.
    """
    _check_ids(g.n, (*trace.initial.gateways, *(move.node for _, move in trace.steps)))
    d = all_pairs_distances(g)
    states = [trace.initial]
    carried = _ProfileState(d, trace.initial)
    block = max(1, g.n // 4)
    for start in range(0, len(trace.steps), block):
        _replay_block(cfg, carried, trace.steps[start : start + block], states)
    state = states[-1]
    if isinstance(trace.outcome, (ConvergedToNE, Stalled)):
        # A stall is claimed on the final state, like an equilibrium, but off one.
        at_ne = isinstance(trace.outcome, ConvergedToNE)
        if trace.outcome.profile != state or carried.scan(cfg).improving.any() == at_ne:
            raise ValueError(f"claimed {trace.outcome} does not verify")
    if isinstance(trace.outcome, CycleDetected):
        entry, steps = trace.outcome.entry_index, len(trace.steps)
        if not 0 <= entry < steps or trace.outcome.period != steps - entry:
            raise ValueError(f"{trace.outcome} does not match a trace of {steps} steps")
        if states[entry] != state:
            raise ValueError("cycle does not close on its entry state")
    return states


def _replay_block(
    cfg: GameConfig,
    carried: _ProfileState,
    block: tuple[tuple[StrategyProfile, Move], ...],
    states: list[StrategyProfile],
) -> None:
    """Walk ``carried`` through ``block``, appending to ``states``, then check
    its moves in integers from one pair of ``_terms`` calls, batched over the
    block's movers with one distance row each.  ``rows[j]`` holds the state's
    ``a`` at step ``j``, and ``bases[:, j]`` the mover's base before
    (``a[v]``) and after its toggle.  A state out of order or a close of the
    sole gateway ends the walk, and is reported only after the steps before it
    pass.  Each move must improve by ``_engine._thresholds``, and its recorded
    delta must equal ``(p + dv*q)/q`` for an open, ``(dv*q - p)/q`` for a
    close; both are in lowest terms, so a ``Fraction`` is compared by
    numerator and denominator.
    """
    rows = np.empty((len(block), len(carried.a)), dtype=carried.a.dtype)
    bases = np.empty((2, len(block)), dtype=carried.a.dtype)
    members, stop = [], None
    for recorded, move in block:
        if recorded != states[-1]:
            stop = "trace states out of order"
            break
        v = move.node
        member = bool(carried.member[v])
        if member and carried.count == 1:
            stop = f"recorded move {move} does not replay"
            break
        rows[len(members)] = carried.a
        bases[:, len(members)] = carried.a[v], carried.base[v]
        members.append(member)
        states.append(recorded.toggled(v))
        carried.toggle(v)
    if members:
        walked = len(members)
        dist = carried.d.dist[[move.node for _, move in block[:walked]]].T[None]
        a, maximum = rows[:walked].T, cfg.variant is Variant.MAX
        after = _engine._terms(dist, a, bases[1:, :walked], maximum)[0]
        dvs = (after - _engine._terms(dist, a, bases[:1, :walked], maximum)[0]).tolist()
        p, q = cfg.alpha.numerator, cfg.alpha.denominator
        open_at, close_at = _engine._thresholds(cfg.alpha)
        for (_, move), member, dv in zip(block, members, dvs):
            kind, num = (MoveKind.CLOSE, dv * q - p) if member else (MoveKind.OPEN, dv * q + p)
            improves = dv <= (close_at if member else open_at)
            if not improves or (move.kind, move.forbidden) != (kind, False) or not _equals(
                move.cost_delta, num, q
            ):
                raise ValueError(f"recorded move {move} does not replay")
    if stop is not None:
        raise ValueError(stop)


def _equals(x, num: int, den: int) -> bool:
    """Whether ``x`` equals ``num/den``, given in lowest terms, forming no
    ``Fraction`` when ``x`` is one."""
    if isinstance(x, Fraction):
        return x.numerator == num and x.denominator == den
    return x == Fraction(num, den)


@unique
class Classification(Enum):
    FIP = "FIP"
    WEAKLY_ACYCLIC = "WEAKLY_ACYCLIC"
    NOT_WEAKLY_ACYCLIC = "NOT_WEAKLY_ACYCLIC"


@dataclass(frozen=True)
class StateGraphReport:
    state_count: int
    ne_states: tuple[StrategyProfile, ...]
    classification: Classification
    cycle: tuple[StrategyProfile, ...] | None
    trapped: tuple[StrategyProfile, ...] | None


def _round(moves: np.ndarray, x: np.ndarray, toggled: np.ndarray, grow: bool) -> np.ndarray:
    """One round of ``_fixpoint``: the states with a move into ``x``, and for
    the reach (``grow=True``) ``x`` with them.  Row ``b`` of ``toggled``, a
    buffer shaped as ``moves``, takes ``x[m ^ (1 << b)]`` by the toggles of
    the packed layout (``_engine``), every bit reading ``x`` as the round
    found it; one AND and one OR-reduce follow."""
    _engine._toggled_in_word(x, toggled[:6])
    for b in range(6, moves.shape[0]):
        half = 1 << (b - 6)
        np.copyto(toggled[b].reshape(-1, 2, half), x.reshape(-1, 2, half)[:, ::-1])
    toggled &= moves
    out = np.bitwise_or.reduce(toggled, axis=0)
    if grow:
        out |= x
    return out


def _fixpoint(moves: np.ndarray, x: np.ndarray, grow: bool) -> np.ndarray:
    """The fixpoint of the packed set ``x`` under ``_round``, both Jacobi
    iterations on one toggled buffer: the greatest below ``x`` for the peel
    (``grow=False``), the least above it for the reach (``grow=True``)."""
    toggled = np.empty_like(moves)
    while True:
        out = _round(moves, x, toggled, grow)
        if np.array_equal(out, x):
            return x
        x = out


def _has(words: np.ndarray, m: int) -> bool:
    """Bit ``m`` of a packed set."""
    return int(words[m >> 6]) >> (m & 63) & 1 == 1


def build_ir_state_graph(
    g: Graph, cfg: GameConfig, exhaustive_limit: int | None = None
) -> StateGraphReport:
    """Classify the improving-response graph over every non-empty profile.

    ``FIP`` means the move graph is acyclic, so every improving path halts.
    ``WEAKLY_ACYCLIC`` means cycles exist, yet from every profile some
    improving path still reaches an equilibrium.  ``NOT_WEAKLY_ACYCLIC``
    comes with a non-empty ``trapped`` witness: profiles from which no
    equilibrium is reachable at all.

    Both verdicts are fixpoints of ``_round`` over the packed move table.
    The peel starts from the states with a move and keeps those with a move
    into the kept set until nothing changes; what stays has an endless
    improving path, so a path into a cycle, and every state it drops halts
    on every path, so reaches an equilibrium.  The reach starts from the
    dropped states and adds every state with a move into the reached set;
    what stays unreached is trapped.  The sample cycle starts at the smallest
    kept mask and follows each state's lowest-bit improving move to a kept
    state until a state repeats.  The sweep is exponential in ``n`` and
    refuses to run past ``exhaustive_limit`` nodes (default 20) or when its
    arrays would not fit in physical memory.
    """
    maximum = cfg.variant is Variant.MAX
    _engine.check_sweep_size(g.n, exhaustive_limit, "profile sweep")
    d = all_pairs_distances(g)
    bytes_each = _engine._table_bytes(d.dist, maximum)
    _engine.check_sweep_size(g.n, exhaustive_limit, "profile sweep", bytes_each)
    moves = _engine.improving_tables(_engine.term_table(d.dist, maximum=maximum), cfg.alpha)
    total = 1 << g.n
    movers = np.bitwise_or.reduce(moves, axis=0)
    sinks = np.flatnonzero(~_engine._unpack(movers, total)[1:]) + 1  # mask 0 is no profile

    alive = _fixpoint(moves, movers, grow=False)
    trapped: list[int] = []
    cycle = None
    if alive.any():
        # Every dropped state reaches an equilibrium.  Mask 0, no profile,
        # is dropped, so it is never trapped.
        reached = _fixpoint(moves, ~alive, grow=True)
        trapped = np.flatnonzero(~_engine._unpack(reached, total)).tolist()
        path = [int(_engine._unpack(alive, total).argmax())]
        positions = {path[0]: 0}
        while True:
            s = path[-1]
            onward = [v for v in range(g.n) if _has(moves[v], s) and _has(alive, s ^ (1 << v))]
            if not onward:
                raise AssertionError("a kept state must have a kept successor")
            nxt = s ^ (1 << onward[0])
            if nxt in positions:
                cycle = tuple(
                    StrategyProfile.from_mask(m) for m in path[positions[nxt]:]
                )
                break
            positions[nxt] = len(path)
            path.append(nxt)

    if cycle is None:
        classification = Classification.FIP
    elif not trapped:
        classification = Classification.WEAKLY_ACYCLIC
    else:
        classification = Classification.NOT_WEAKLY_ACYCLIC
    return StateGraphReport(
        state_count=total - 1,
        ne_states=tuple(StrategyProfile.from_mask(s) for s in sinks.tolist()),
        classification=classification,
        cycle=cycle,
        trapped=tuple(StrategyProfile.from_mask(s) for s in trapped) or None,
    )
