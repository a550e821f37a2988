"""Improving-response dynamics and the full state-space classifier.

A scheduler picks which strictly improving toggle fires next.  Traces record
the profile before each move together with the move itself, so a run can be
replayed and re-audited move by move.  The classifier sweeps all ``2^n - 1``
profiles to decide whether improving paths always terminate (``FIP``), can
always be steered to an equilibrium (``WEAKLY_ACYCLIC``), or can get trapped
with no equilibrium reachable at all (``NOT_WEAKLY_ACYCLIC``).
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Union

import numpy as np

from . import _engine
from .constructions import IrCycleParams, gen_ir_cycle, gen_max_line
from .errors import NodeIdOutOfRange, StateSpaceTooLarge
from .game import (
    GameConfig,
    Move,
    MoveKind,
    StrategyProfile,
    Variant,
    _check_node,
    _scan_toggles,
    evaluate_move,
    floor_div,
    improving_moves,
    is_nash_equilibrium,
    private_cost,
)
from .graphs import Graph, all_pairs_distances

EXHAUSTIVE_LIMIT_ENV = "GATEWAY_GAMES_EXHAUSTIVE_LIMIT"
DEFAULT_EXHAUSTIVE_LIMIT = 20


def resolve_exhaustive_limit(explicit: int | None) -> int:
    """Explicit argument, else the environment override, else the default."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(EXHAUSTIVE_LIMIT_ENV)
    return int(raw) if raw else DEFAULT_EXHAUSTIVE_LIMIT


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
    def __init__(self, g: Graph, d, cfg: GameConfig, scheduler: Scheduler):
        self.g, self.d, self.cfg = g, d, cfg
        self.scheduler = scheduler
        self.cursor = 0
        self.rng = random.Random(scheduler.seed) if isinstance(scheduler, RandomSeeded) else None

    def pick(self, s: StrategyProfile) -> Move | None:
        sched = self.scheduler
        toggles = _scan_toggles(self.d.dist, self.cfg, s)
        improving = toggles.improving
        if isinstance(sched, FixedSequence):
            length = len(sched.nodes)
            for offset in range(length):
                i = (self.cursor + offset) % length
                v = sched.nodes[i]
                _check_node(self.g, v)
                if improving[v]:
                    self.cursor = (i + 1) % length
                    return toggles.move(v)
            return None
        if isinstance(sched, OpensOnly):
            for v in sorted(sched.nodes):
                if v in s:
                    continue
                _check_node(self.g, v)
                if improving[v]:
                    return toggles.move(v)
            return None
        hits = np.flatnonzero(improving)
        if not hits.size:
            return None
        if isinstance(sched, RoundRobin):
            later = hits[hits >= self.cursor]
            v = int(later[0] if later.size else hits[0])
            self.cursor = (v + 1) % self.g.n
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
    out.  The default budget is ``min(10 * 2^n, 10^6)``.
    """
    for v in s0.gateways:
        if not 0 <= v < g.n:
            raise NodeIdOutOfRange(f"initial gateway {v} outside [0, {g.n})")
    d = all_pairs_distances(g)
    budget = default_step_budget(g.n) if max_steps is None else max_steps
    picker = _Picker(g, d, cfg, scheduler)
    restricted = isinstance(scheduler, (FixedSequence, OpensOnly))
    seen = {s0.mask(): 0}
    steps: list[tuple[StrategyProfile, Move]] = []
    state = s0
    while True:
        move = picker.pick(state)
        if move is None:
            if restricted and not is_nash_equilibrium(g, d, cfg, state):
                outcome: Outcome = Stalled(state)
            else:
                outcome = ConvergedToNE(state)
            break
        if len(steps) >= budget:
            outcome = BudgetExhausted()
            break
        steps.append((state, move))
        state = state.toggled(move.node)
        previous = seen.get(state.mask())
        if previous is not None:
            outcome = CycleDetected(previous, len(steps) - previous)
            break
        seen[state.mask()] = len(steps)
    return DynamicsTrace(s0, tuple(steps), outcome)


def replay_trace(g: Graph, cfg: GameConfig, trace: DynamicsTrace) -> list[StrategyProfile]:
    """Re-evaluate every recorded move; raises ``ValueError`` on any mismatch."""
    d = all_pairs_distances(g)
    state = trace.initial
    for recorded_state, move in trace.steps:
        if recorded_state != state:
            raise ValueError("trace states out of order")
        fresh = evaluate_move(g, d, cfg, state, move.node)
        if fresh != move or not fresh.is_improving:
            raise ValueError(f"recorded move {move} does not replay")
        state = state.toggled(move.node)
    if isinstance(trace.outcome, ConvergedToNE):
        if trace.outcome.profile != state or not is_nash_equilibrium(g, d, cfg, state):
            raise ValueError("claimed equilibrium does not verify")
    if isinstance(trace.outcome, CycleDetected):
        states = trace.states()
        entry = trace.outcome.entry_index
        if states[entry] != state:
            raise ValueError("cycle does not close on its entry state")
    return trace.states()


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


def _predecessors(t: int, n: int, open_ok: np.ndarray, close_ok: np.ndarray):
    """States with an improving toggle landing on ``t``."""
    for b in range(n):
        bit = 1 << b
        if t & bit:
            s = t ^ bit
            if s and open_ok[s, b]:
                yield s
        else:
            s = t | bit
            if close_ok[s, b]:
                yield s


def build_ir_state_graph(
    g: Graph, cfg: GameConfig, exhaustive_limit: int | None = None
) -> StateGraphReport:
    """Classify the improving-response graph over every non-empty profile.

    ``FIP`` means the move graph is acyclic, so every improving path halts.
    ``WEAKLY_ACYCLIC`` means cycles exist, yet from every profile some
    improving path still reaches an equilibrium.  ``NOT_WEAKLY_ACYCLIC``
    comes with a non-empty ``trapped`` witness: profiles from which no
    equilibrium is reachable at all.  The sweep is exponential in ``n`` and
    refuses to run past the configured limit
    (``GATEWAY_GAMES_EXHAUSTIVE_LIMIT``, default 20).
    """
    limit = resolve_exhaustive_limit(exhaustive_limit)
    if g.n > limit:
        raise StateSpaceTooLarge(
            f"profile sweep needs n <= {limit}, got n = {g.n}"
        )
    d = all_pairs_distances(g)
    table = _engine.term_table(d.dist, maximum=cfg.variant is Variant.MAX)
    open_ok, close_ok = _engine.improving_tables(table, cfg.alpha)
    total = 1 << g.n
    out_deg = (open_ok | close_ok).sum(axis=1).astype(np.int64)
    sinks = [s for s in range(1, total) if out_deg[s] == 0]

    # Peel states whose every move chain already terminates; leftovers carry cycles.
    alive = bytearray([1]) * total
    alive[0] = 0
    deg = out_deg.copy()
    dq = deque(sinks)
    while dq:
        t = dq.popleft()
        alive[t] = 0
        for s in _predecessors(t, g.n, open_ok, close_ok):
            if alive[s]:
                deg[s] -= 1
                if deg[s] == 0:
                    dq.append(s)
    acyclic = not any(alive)

    # Reverse reachability: which states can still reach some equilibrium?
    reached = bytearray(total)
    dq = deque(sinks)
    for s in sinks:
        reached[s] = 1
    while dq:
        t = dq.popleft()
        for s in _predecessors(t, g.n, open_ok, close_ok):
            if not reached[s]:
                reached[s] = 1
                dq.append(s)
    trapped = [s for s in range(1, total) if not reached[s]]

    cycle = None
    if not acyclic:
        start = next(s for s in range(1, total) if alive[s])
        path = [start]
        positions = {start: 0}
        while True:
            s = path[-1]
            nxt = None
            for b in range(g.n):
                t = s ^ (1 << b)
                improving = open_ok[s, b] if not s & (1 << b) else close_ok[s, b]
                if improving and alive[t]:
                    nxt = t
                    break
            if nxt is None:
                raise AssertionError("unpeeled state must keep an unpeeled successor")
            if nxt in positions:
                cycle = tuple(
                    StrategyProfile.from_mask(m) for m in path[positions[nxt]:]
                )
                break
            positions[nxt] = len(path)
            path.append(nxt)

    if acyclic:
        classification = Classification.FIP
    elif not trapped:
        classification = Classification.WEAKLY_ACYCLIC
    else:
        classification = Classification.NOT_WEAKLY_ACYCLIC
    return StateGraphReport(
        state_count=total - 1,
        ne_states=tuple(StrategyProfile.from_mask(s) for s in sinks),
        classification=classification,
        cycle=cycle,
        trapped=tuple(StrategyProfile.from_mask(s) for s in trapped) or None,
    )


def reaches_ne_from(
    g: Graph, cfg: GameConfig, s0: StrategyProfile, exhaustive_limit: int | None = None
) -> tuple[bool, tuple[StrategyProfile, ...] | None]:
    """Breadth-first hunt for an equilibrium reachable from ``s0``.

    Returns the verdict and, when reachable, a shortest improving path
    (initial profile included).
    """
    limit = resolve_exhaustive_limit(exhaustive_limit)
    if g.n > limit:
        raise StateSpaceTooLarge(f"reachable sweep needs n <= {limit}, got n = {g.n}")
    d = all_pairs_distances(g)
    start = s0.mask()
    parent: dict[int, int] = {start: 0}
    dq = deque([start])
    while dq:
        mask = dq.popleft()
        state = StrategyProfile.from_mask(mask)
        moves = improving_moves(g, d, cfg, state)
        if not moves:
            path = [mask]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return True, tuple(StrategyProfile.from_mask(m) for m in reversed(path))
        for m in moves:
            nxt = mask ^ (1 << m.node)
            if nxt not in parent:
                parent[nxt] = mask
                dq.append(nxt)
    return False, None


@dataclass(frozen=True)
class ConditionReport:
    """One inequality governing a step of the four-move gadget cycle.

    ``threshold`` is the closed-form distance change for the move (savings
    for an open, regained distance for a close); ``simulated_threshold`` is
    the same quantity recovered from a direct cost evaluation on the
    generated graph.  ``holds`` compares alpha against the closed form,
    ``agrees`` confirms the direct evaluation reaches the same verdict.
    """

    label: str
    node: int
    kind: MoveKind
    sense: str
    threshold: Fraction
    holds: bool
    simulated_threshold: Fraction
    agrees: bool

    @property
    def exact(self) -> bool:
        return self.threshold == self.simulated_threshold

    @property
    def inequality(self) -> str:
        return f"alpha {self.sense} {self.threshold}"


def verify_cycle_conditions(params: IrCycleParams) -> list[ConditionReport]:
    """Check the four strict inequalities that drive the gadget's toggle cycle.

    The thresholds are derived from the gadget geometry: pairs of interior
    detour terms plus pendant contributions.  Each is cross-checked against
    ``evaluate_move`` on the generated graph; ``exact`` reports whether the
    closed form matches the simulation to the last integer.
    """
    game = gen_ir_cycle(params, validate=False)
    g, roles = game.graph, game.roles
    n, c, r, alpha = params.n, params.c, params.r, params.alpha
    u, v, w = roles["u"], roles["v"], roles["w"]
    interior = ((c - 1) // 2) * (c // 2)
    t_open_u = Fraction(c * (c + 1) + 2 * r * c)
    t_open_v = Fraction(2 * interior + 2 * c + (n - 2 * c - 1) * c)
    t_close_u = Fraction(interior + c * (c + 1) + r * c)
    t_close_v = Fraction(interior + (r + 1) * c)
    plan = [
        ("I", u, MoveKind.OPEN, "<", t_open_u),
        ("II", v, MoveKind.OPEN, "<", t_open_v),
        ("III", u, MoveKind.CLOSE, ">", t_close_u),
        ("IV", v, MoveKind.CLOSE, ">", t_close_v),
    ]
    d = all_pairs_distances(g)
    cfg = GameConfig(Variant.SUM, alpha)
    state = StrategyProfile.of([w])
    reports = []
    for label, node, kind, sense, threshold in plan:
        move = evaluate_move(g, d, cfg, state, node)
        if move.kind is not kind:
            raise AssertionError(f"step {label}: expected {kind}, got {move.kind}")
        if kind is MoveKind.OPEN:
            simulated = alpha - move.cost_delta
            holds = alpha < threshold
        else:
            simulated = alpha + move.cost_delta
            holds = alpha > threshold
        reports.append(
            ConditionReport(
                label=label,
                node=node,
                kind=kind,
                sense=sense,
                threshold=threshold,
                holds=holds,
                simulated_threshold=simulated,
                agrees=holds == (move.cost_delta < 0),
            )
        )
        state = state.toggled(node)
    return reports


@dataclass(frozen=True)
class LineConditionReport:
    """Before/after private cost for one step of the MAX line cycle."""

    label: str
    node: int
    kind: MoveKind
    before: Fraction
    after: Fraction
    holds: bool
    simulated_before: Fraction
    simulated_after: Fraction
    agrees: bool

    @property
    def exact(self) -> bool:
        return self.before == self.simulated_before and self.after == self.simulated_after


def verify_max_line_conditions(alpha: Fraction | int) -> list[LineConditionReport]:
    """The four strict inequalities behind the MAX line's endless toggling."""
    alpha = Fraction(alpha)
    game = gen_max_line(alpha)
    g, roles = game.graph, game.roles
    u, v, w = roles["u"], roles["v"], roles["w"]
    f = floor_div(alpha)
    plan = [
        ("I", w, MoveKind.OPEN, Fraction(2 * f + 2), alpha + f + 1),
        ("II", v, MoveKind.OPEN, Fraction(2 * f + 2), alpha + f + 1),
        # After w closes, the worst-off target is the midpoint between the
        # remaining gateways u and v, not the line's far end.
        ("III", w, MoveKind.CLOSE, alpha + f + 1, Fraction(f + 1 + (f + 1) // 2)),
        ("IV", v, MoveKind.CLOSE, alpha + 2 * f + 2, Fraction(2 * f + 2)),
    ]
    d = all_pairs_distances(g)
    cfg = GameConfig(Variant.MAX, alpha)
    state = StrategyProfile.of([u])
    reports = []
    for label, node, kind, before, after in plan:
        move = evaluate_move(g, d, cfg, state, node)
        if move.kind is not kind:
            raise AssertionError(f"step {label}: expected {kind}, got {move.kind}")
        sim_before = private_cost(g, d, cfg, state, node)
        sim_after = sim_before + move.cost_delta
        holds = after < before
        reports.append(
            LineConditionReport(
                label=label,
                node=node,
                kind=kind,
                before=before,
                after=after,
                holds=holds,
                simulated_before=sim_before,
                simulated_after=sim_after,
                agrees=holds == (move.cost_delta < 0),
            )
        )
        state = state.toggled(node)
    return reports
