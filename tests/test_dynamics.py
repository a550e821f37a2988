import json
import os
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    BestGain,
    BoundedCardinality,
    BudgetExhausted,
    Classification,
    ConvergedToNE,
    CycleDetected,
    DynamicsTrace,
    FixedSequence,
    FullEnumeration,
    GameConfig,
    IrCycleParams,
    Move,
    MoveKind,
    NodeIdOutOfRange,
    OpensOnly,
    ParameterOutOfRange,
    RandomSeeded,
    RoundRobin,
    Stalled,
    StateSpaceTooLarge,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    brute_force_optimum,
    build_graph,
    build_ir_state_graph,
    default_step_budget,
    enumerate_equilibria,
    evaluate_move,
    gen_ir_cycle,
    gen_max_line,
    gen_max_poa_star,
    gen_non_wag,
    gen_sum_poa_star,
    graph_to_json,
    is_nash_equilibrium,
    replay_trace,
    run_dynamics,
)
from gateway_games import _engine, cli, graphs
from gateway_games import dynamics as _dynamics
from gateway_games.game import _ProfileState

from conftest import (
    alphas,
    connected_graphs,
    count_calls,
    graph_profile_pairs,
    knife_prices,
    mask_of,
    oracle_move,
    path_graph,
    random_connected_graph,
    recorded_scans,
    reference_replay,
    run_python,
    toggle_walk,
    traced_peak,
)

SUM = Variant.SUM
MAX = Variant.MAX


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_default_step_budget():
    assert default_step_budget(3) == 80
    assert default_step_budget(30) == 10**6


def test_bad_initial_profile(p3):
    with pytest.raises(Exception):
        run_dynamics(p3, GameConfig(SUM, 1), StrategyProfile.of([5]), RoundRobin())


@given(connected_graphs(min_n=2, max_n=7), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_small_alpha_converges_to_full_profile(g, seed):
    """Every improving sequence at alpha < 1 ends with all nodes open."""
    cfg = GameConfig(SUM, Fraction(1, 2))
    start = StrategyProfile.of([seed % g.n])
    for scheduler in (RoundRobin(), RandomSeeded(seed), BestGain()):
        trace = run_dynamics(g, cfg, start, scheduler)
        assert isinstance(trace.outcome, ConvergedToNE)
        assert trace.outcome.profile.ids == tuple(range(g.n))
        assert replay_trace(g, cfg, trace)[-1] == trace.final


def test_round_robin_vs_best_gain_first_pick(p5):
    cfg = GameConfig(SUM, Fraction(1, 2))
    start = StrategyProfile.of([0])
    rr = run_dynamics(p5, cfg, start, RoundRobin())
    bg = run_dynamics(p5, cfg, start, BestGain())
    assert rr.steps[0][1].node == 1
    assert bg.steps[0][1].node == 4
    assert bg.steps[0][1].cost_delta == Fraction(-11, 2)


def test_random_scheduler_is_seed_deterministic(p5):
    cfg = GameConfig(SUM, Fraction(1, 2))
    start = StrategyProfile.of([2])
    a = run_dynamics(p5, cfg, start, RandomSeeded(99))
    b = run_dynamics(p5, cfg, start, RandomSeeded(99))
    assert a.steps == b.steps and a.outcome == b.outcome


def test_budget_exhaustion_and_boundary(p5):
    cfg = GameConfig(SUM, Fraction(1, 2))
    start = StrategyProfile.of([0])
    short = run_dynamics(p5, cfg, start, RoundRobin(), max_steps=2)
    assert isinstance(short.outcome, BudgetExhausted)
    assert len(short.steps) == 2
    exact = run_dynamics(p5, cfg, start, RoundRobin(), max_steps=4)
    assert isinstance(exact.outcome, ConvergedToNE)
    none = run_dynamics(p5, cfg, start, RoundRobin(), max_steps=0)
    assert isinstance(none.outcome, BudgetExhausted) and not none.steps
    with pytest.raises(ValueError):
        run_dynamics(p5, cfg, start, RoundRobin(), max_steps=-1)


def test_restricted_scheduler_stalls(p3):
    cfg = GameConfig(SUM, Fraction(100))
    start = StrategyProfile.of([0, 1])
    for scheduler in (FixedSequence((2,)), OpensOnly(frozenset({2}))):
        trace = run_dynamics(p3, cfg, start, scheduler)
        assert isinstance(trace.outcome, Stalled)
        assert trace.outcome.profile == start


def test_run_scans_each_visited_profile_once(monkeypatch, p5):
    """The verdict on the last profile, stalled or converged, comes from the
    carried state's scan of it: one scan per visited profile, and no other."""
    game = gen_non_wag()
    stall = OpensOnly(frozenset({game.roles["u"]}))
    runs = [
        (game.graph, GameConfig(SUM, Fraction(7)), game.initial, stall, Stalled),
        (p5, GameConfig(SUM, Fraction(1, 2)), StrategyProfile.of([0]), RoundRobin(), ConvergedToNE),
    ]
    for g, cfg, start, scheduler, outcome in runs:
        scans = recorded_scans(monkeypatch)
        trace = run_dynamics(g, cfg, start, scheduler)
        assert isinstance(trace.outcome, outcome) and trace.steps
        assert len(scans) == len(trace.steps) + 1
        monkeypatch.undo()


def test_restricted_scheduler_on_equilibrium_converges(p3):
    cfg = GameConfig(SUM, Fraction(100))
    trace = run_dynamics(p3, cfg, StrategyProfile.of([0]), OpensOnly(frozenset({1, 2})))
    assert isinstance(trace.outcome, ConvergedToNE)


def test_ir_cycle_replay():
    params = IrCycleParams(10, 1, 2, Fraction(5))
    game = gen_ir_cycle(params)
    cfg = GameConfig(SUM, params.alpha)
    sched = FixedSequence((game.roles["u"], game.roles["v"]))
    trace = run_dynamics(game.graph, cfg, game.initial, sched)
    assert trace.outcome == CycleDetected(0, 4)
    states = replay_trace(game.graph, cfg, trace)
    assert states[0] == states[4] == game.initial


def test_replay_rejects_tampered_trace(p5):
    cfg = GameConfig(SUM, Fraction(1, 2))
    trace = run_dynamics(p5, cfg, StrategyProfile.of([0]), RoundRobin())
    bad = trace.steps[0][1].__class__(
        node=trace.steps[0][1].node,
        kind=trace.steps[0][1].kind,
        cost_delta=trace.steps[0][1].cost_delta + 1,
    )
    tampered = trace.__class__(trace.initial, ((trace.steps[0][0], bad),) + trace.steps[1:], trace.outcome)
    with pytest.raises(ValueError, match="does not replay"):
        replay_trace(p5, cfg, tampered)


def trace_from_stdout(out: str, init) -> DynamicsTrace:
    """The trace a ``dynamics`` run printed, from its stdout and initial
    profile alone: each step from its line's node, move and delta, the
    outcome from the last line."""
    *lines, last = map(json.loads, out.splitlines())
    state = initial = StrategyProfile.of(init)
    steps = []
    for line in lines:
        steps.append((state, Move(line["node"], MoveKind(line["move"]), Fraction(line["delta"]))))
        state = state.toggled(line["node"])
    if last["outcome"] == "converged":
        return DynamicsTrace(initial, tuple(steps), ConvergedToNE(StrategyProfile.of(last["final"])))
    return DynamicsTrace(initial, tuple(steps), CycleDetected(last["entry_index"], last["period"]))


@pytest.mark.parametrize(
    "make, variant, alpha, init, code, last, states",
    [
        # Closes rebuild the carried nearest-gateway rows: from every node
        # open, the 30-node MAX star makes 27 closes, then 4 opens.
        (lambda: gen_max_poa_star(30).graph, "max", 3, "all", 0,
         {"final": [0, 4, 9, 13, 18, 23, 29], "outcome": "converged", "steps": 31}, 32),
        # Past the int16 oracle boundary: the 182-node SUM star runs on an
        # int32 oracle and converges after 181 improving opens.
        (lambda: gen_sum_poa_star(182, 16).graph, "sum", 16, "0", 0,
         {"outcome": "converged", "steps": 181}, 182),
        # Five words per packed row in the distance build, distances past 255
        # and an int32 oracle: the MAX game on a 300-node path cycles.
        (lambda: path_graph(300), "max", 40, "0", 3,
         {"entry_index": 4, "outcome": "cycle", "period": 4}, 9),
    ],
    ids=["max-star-30", "sum-star-182", "path-300"],
)
def test_cli_stdout_replays(tmp_path, capsys, make, variant, alpha, init, code, last, states):
    """A round-robin ``dynamics`` run's exit code and outcome line, and its
    stdout read back into a trace that ``replay_trace`` accepts, and refuses
    with one recorded delta off by 1."""
    g = make()
    graph = tmp_path / "g.json"
    graph.write_text(graph_to_json(g))
    argv = ["dynamics", "--graph", str(graph), "--variant", variant, "--alpha", str(alpha),
            "--init", init, "--scheduler", "round-robin"]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    outcome = json.loads(out.splitlines()[-1])
    assert {key: outcome[key] for key in last} == last
    trace = trace_from_stdout(out, range(g.n) if init == "all" else [int(init)])
    cfg = GameConfig(Variant(variant), Fraction(alpha))
    assert len(replay_trace(g, cfg, trace)) == states
    state, move = trace.steps[5]
    forged = (state, replace(move, cost_delta=move.cost_delta + 1))
    with pytest.raises(ValueError, match="does not replay"):
        replay_trace(g, cfg, replace(trace, steps=trace.steps[:5] + (forged,) + trace.steps[6:]))


def test_replay_rejects_forged_stall():
    game = gen_non_wag()
    cfg = GameConfig(SUM, Fraction(7))
    trace = run_dynamics(game.graph, cfg, game.initial, OpensOnly(frozenset({game.roles["u"]})))
    assert trace.outcome == Stalled(StrategyProfile.of([0, 2])) and len(trace.steps) == 1
    replay_trace(game.graph, cfg, trace)
    elsewhere = replace(trace, outcome=Stalled(StrategyProfile.of([0, 1, 2, 3])))
    with pytest.raises(ValueError, match="Stalled"):
        replay_trace(game.graph, cfg, elsewhere)


def test_replay_rejects_a_stall_on_an_equilibrium(p5):
    cfg = GameConfig(SUM, Fraction(1, 2))
    trace = run_dynamics(p5, cfg, StrategyProfile.of([0]), RoundRobin())
    assert isinstance(trace.outcome, ConvergedToNE)
    with pytest.raises(ValueError, match="Stalled"):
        replay_trace(p5, cfg, replace(trace, outcome=Stalled(trace.final)))


def test_replay_rejects_forged_cycle_period_and_entry():
    params = IrCycleParams(10, 1, 2, Fraction(5))
    game = gen_ir_cycle(params)
    cfg = GameConfig(SUM, params.alpha)
    sched = FixedSequence((game.roles["u"], game.roles["v"]))
    trace = run_dynamics(game.graph, cfg, game.initial, sched)
    assert trace.outcome == CycleDetected(0, 4)
    for forged in (CycleDetected(0, 3), CycleDetected(-1, 5)):
        with pytest.raises(ValueError, match="does not match a trace of 4 steps"):
            replay_trace(game.graph, cfg, replace(trace, outcome=forged))


@pytest.mark.parametrize("node", [-1, 5])
def test_replay_refuses_a_recorded_node_outside_the_graph(monkeypatch, p5, node):
    """A recorded move's node is checked against ``[0, n)``, before the
    oracle is built: ``-1`` must not read the last distance row, nor ``n``
    run past the matrix."""
    cfg = GameConfig(SUM, Fraction(1, 2))
    trace = run_dynamics(p5, cfg, StrategyProfile.of([0]), RoundRobin())
    first_state, first = trace.steps[0]
    forged = replace(trace, steps=((first_state, replace(first, node=node)),) + trace.steps[1:])
    builds = count_calls(monkeypatch, "_bitset_distances")
    with pytest.raises(NodeIdOutOfRange):
        replay_trace(p5, cfg, forged)
    assert builds == []


@pytest.mark.parametrize("forbidden", [True, False])
def test_replay_refuses_a_recorded_close_of_the_sole_gateway(p5, forbidden):
    """Closing the only gateway is never a move, whether or not the trace
    marks it forbidden."""
    cfg = GameConfig(SUM, Fraction(100))
    start = StrategyProfile.of([2])
    scored = evaluate_move(all_pairs_distances(p5), cfg, start, 2)
    assert scored.kind is MoveKind.CLOSE and scored.forbidden
    close = replace(scored, forbidden=forbidden)
    forged = _dynamics.DynamicsTrace(start, ((start, close),), BudgetExhausted())
    with pytest.raises(ValueError, match="does not replay"):
        replay_trace(p5, cfg, forged)


def _raised(replay, g, cfg, trace):
    """``(exception type, message)`` of ``replay(g, cfg, trace)``, or
    ``(None, states)`` when it returns."""
    try:
        return None, replay(g, cfg, trace)
    except (ValueError, NodeIdOutOfRange) as err:
        return type(err), str(err)


def _tamperings(trace, j, n):
    """``trace`` with step ``j`` forged each way a replay must refuse: the
    delta moved by +-1, the kind flipped, ``forbidden`` set, the state out of
    order, a node outside ``[0, n)``, and, on the first step whose state has
    one gateway, that gateway's close.  One more copy moves step ``j``'s delta
    and puts the state of step ``j + 1``, in the same block or the next, out
    of order: the earlier fault must be the one reported."""
    state, move = trace.steps[j]
    flipped = MoveKind.OPEN if move.kind is MoveKind.CLOSE else MoveKind.CLOSE
    forged = [
        (state, replace(move, cost_delta=move.cost_delta + 1)),
        (state, replace(move, cost_delta=move.cost_delta - 1)),
        (state, replace(move, kind=flipped)),
        (state, replace(move, forbidden=True)),
        (state.toggled(move.node), move),
        (state, replace(move, node=-1)),
        (state, replace(move, node=n)),
    ]
    out = [replace(trace, steps=trace.steps[:j] + (step,) + trace.steps[j + 1 :]) for step in forged]
    sole = next((i for i, (s, _) in enumerate(trace.steps) if len(s) == 1), None)
    if sole is not None:
        s, m = trace.steps[sole]
        close = replace(m, node=next(iter(s)), kind=MoveKind.CLOSE, forbidden=True)
        out.append(replace(trace, steps=trace.steps[:sole] + ((s, close),) + trace.steps[sole + 1 :]))
    if j + 1 < len(trace.steps):
        later_state, later = trace.steps[j + 1]
        both = (forged[0], (later_state.toggled(later.node), later))
        out.append(replace(trace, steps=trace.steps[:j] + both + trace.steps[j + 2 :]))
    return out


def test_replay_refuses_a_recorded_move_of_zero_gain(p5):
    """On the 5-node path at alpha 1, node 1's open from ``{0}`` lowers its
    distance term by exactly 1: a delta of 0, recorded as evaluated, is no
    improving move."""
    cfg = GameConfig(SUM, Fraction(1))
    start = StrategyProfile.of([0])
    level = evaluate_move(all_pairs_distances(p5), cfg, start, 1)
    assert (level.kind, level.cost_delta, level.forbidden) == (MoveKind.OPEN, 0, False)
    forged = _dynamics.DynamicsTrace(start, ((start, level),), BudgetExhausted())
    for replay in (replay_trace, reference_replay):
        with pytest.raises(ValueError, match="does not replay"):
            replay(p5, cfg, forged)


@given(
    connected_graphs(min_n=2, max_n=12),
    alphas(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batched_replay_matches_the_step_by_step_reference(g, alpha, seed, max_steps, single):
    """On every trace of all five schedulers and both variants, the batched
    replay returns the reference's states; on every forged copy it raises
    the reference's exception, with its message, from the same step.  At
    n <= 12 a block holds at most 3 steps, so most traces span several."""
    rnd = random.Random(seed)
    order = tuple(rnd.sample(range(g.n), g.n))
    start = StrategyProfile.of(order[: 1 if single else 1 + rnd.randrange(g.n)])
    schedulers = [
        RoundRobin(),
        RandomSeeded(seed),
        BestGain(),
        FixedSequence(order),
        OpensOnly(frozenset(order[: (g.n + 1) // 2])),
    ]
    for variant in (SUM, MAX):
        cfg = GameConfig(variant, alpha)
        for scheduler in schedulers:
            trace = run_dynamics(g, cfg, start, scheduler, max_steps=max_steps)
            assert replay_trace(g, cfg, trace) == reference_replay(g, cfg, trace) == trace.states()
            if not trace.steps:
                continue
            for forged in _tamperings(trace, rnd.randrange(len(trace.steps)), g.n):
                want = _raised(reference_replay, g, cfg, forged)
                assert want[0] is not None
                assert _raised(replay_trace, g, cfg, forged) == want


def test_batched_replay_peak_stays_within_three_oracle_cells_of_the_reference():
    """``test_oracle_guard_covers_the_move_kernel_peak`` cannot cover a replay,
    whose returned states dominate its peak, so the batched replay of a
    499-step trace on the 500-node path (four blocks, int32 oracle) is held
    to the step-by-step reference's peak plus three oracle cells per cell."""
    n = 500
    g = path_graph(n)
    cfg = GameConfig(SUM, 2)
    trace = run_dynamics(g, cfg, StrategyProfile.of([0]), RoundRobin())
    assert len(trace.steps) == n - 1
    itemsize = all_pairs_distances(g).dist.itemsize
    assert itemsize == 4
    batched, reference = (
        traced_peak(lambda: replay(g, cfg, trace)) for replay in (replay_trace, reference_replay)
    )
    assert (batched - reference) / (n * n) <= 3 * itemsize, (batched / n**2, reference / n**2)


def test_state_graph_triangle_small_alpha(triangle):
    report = build_ir_state_graph(triangle, GameConfig(SUM, Fraction(1, 2)))
    assert report.classification is Classification.FIP
    assert report.state_count == 7
    assert [p.ids for p in report.ne_states] == [(0, 1, 2)]
    assert report.cycle is None and report.trapped is None


def test_state_graph_huge_alpha_sinks_are_singletons(p3):
    report = build_ir_state_graph(p3, GameConfig(SUM, Fraction(7)))
    assert report.classification is Classification.FIP
    assert sorted(p.ids for p in report.ne_states) == [(0,), (1,), (2,)]


def test_state_graph_ir_cycle_gadget_keeps_a_cycle():
    game = gen_ir_cycle(IrCycleParams(10, 1, 2, Fraction(5)))
    cfg = GameConfig(SUM, Fraction(5))
    report = build_ir_state_graph(game.graph, cfg)
    assert report.classification is not Classification.FIP
    assert report.cycle is not None and len(report.cycle) >= 2
    d = all_pairs_distances(game.graph)
    for s, t in zip(report.cycle, report.cycle[1:] + report.cycle[:1]):
        (v,) = s.gateways ^ t.gateways
        assert evaluate_move(d, cfg, s, v).is_improving


def test_non_wag_gadget_traps_initial_state():
    game = gen_non_wag()
    cfg = GameConfig(SUM, Fraction(7))
    report = build_ir_state_graph(game.graph, cfg)
    assert report.classification is Classification.NOT_WEAKLY_ACYCLIC
    assert game.initial in report.trapped


def test_state_space_cap(p5):
    with pytest.raises(StateSpaceTooLarge):
        build_ir_state_graph(p5, GameConfig(SUM, 1), exhaustive_limit=4)


def test_exhaustive_limit_default_override_and_refusal(p5):
    """The cap is 20 nodes unless ``exhaustive_limit`` says otherwise; the
    optimum routes past it to the bounded search instead of refusing."""
    cfg = GameConfig(SUM, 1000)
    refusing = [build_ir_state_graph, enumerate_equilibria]
    for sweep in refusing:
        with pytest.raises(StateSpaceTooLarge, match=r"n <= 20, got n = 21"):
            sweep(path_graph(21), cfg)
        with pytest.raises(StateSpaceTooLarge, match=r"n <= 4, got n = 5"):
            sweep(p5, cfg, exhaustive_limit=4)
        with pytest.raises(StateSpaceTooLarge, match=r"n <= 0, got n = 5"):
            sweep(p5, cfg, exhaustive_limit=0)
        assert sweep(p5, cfg, exhaustive_limit=5) == sweep(p5, cfg)
    assert isinstance(brute_force_optimum(path_graph(21), cfg).method, BoundedCardinality)
    assert isinstance(brute_force_optimum(path_graph(20), cfg).method, FullEnumeration)
    assert isinstance(brute_force_optimum(p5, cfg, exhaustive_limit=4).method, BoundedCardinality)
    assert isinstance(brute_force_optimum(p5, cfg, exhaustive_limit=0).method, BoundedCardinality)
    assert isinstance(brute_force_optimum(p5, cfg, exhaustive_limit=5).method, FullEnumeration)
    for sweep in refusing + [brute_force_optimum]:
        with pytest.raises(ValueError, match="exhaustive limit must be non-negative, got -1"):
            sweep(p5, cfg, exhaustive_limit=-1)


def test_sweeps_beyond_physical_memory_are_refused_before_allocating(
    monkeypatch, tmp_path, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused sweep allocated its tables")

    monkeypatch.setattr(_engine, "term_table", unreachable)
    monkeypatch.setattr(_engine, "term_sums", unreachable)
    monkeypatch.setattr(_engine, "term_sums_for_masks", unreachable)
    # 2^40 profiles of 40 nodes: hundreds of terabytes of tables, within the limit.
    g = path_graph(40)
    cfg = GameConfig(SUM, 2)
    sweeps = [
        lambda: build_ir_state_graph(g, cfg, exhaustive_limit=40),
        lambda: enumerate_equilibria(g, cfg, exhaustive_limit=40),
        lambda: brute_force_optimum(g, cfg, exhaustive_limit=40),
    ]
    for sweep in sweeps:
        with pytest.raises(StateSpaceTooLarge, match="physical memory"):
            sweep()
    graph_file = tmp_path / "p40.json"
    graph_file.write_text(graph_to_json(g))
    for cmd in ("classify", "equilibria", "poa", "optimum"):
        argv = [cmd, "--graph", str(graph_file), "--alpha", "2", "--limit", "40"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert out == "" and len(errors) == 1 and "physical memory" in errors[0]
        assert "Traceback" not in err


def test_memory_guard_admits_its_estimate_and_refuses_one_node_more(monkeypatch):
    """Each sweep's estimate, ``2^n * (s * n + ceil(n / 8) + 4)`` bytes for the
    classifier and equilibrium enumeration, with ``s = 1`` for the uint8
    term table of a 10-node path, and ``2^n * 12`` for the full optimum,
    admits it at n with exactly that much physical memory, and refuses it
    one byte below and at n + 1."""
    n = 10
    assert _engine._narrow(all_pairs_distances(path_graph(n + 1)).dist, False).dtype == np.uint8
    memory = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    cfg = GameConfig(SUM, 2)
    sweeps = [
        (n + 2 + 4, lambda g: build_ir_state_graph(g, cfg, exhaustive_limit=g.n)),
        (n + 2 + 4, lambda g: enumerate_equilibria(g, cfg, exhaustive_limit=g.n)),
        (12, lambda g: brute_force_optimum(g, cfg, exhaustive_limit=g.n)),
    ]
    for profile_bytes, sweep in sweeps:
        memory["SC_PHYS_PAGES"] = (1 << n) * profile_bytes
        sweep(path_graph(n))
        with pytest.raises(StateSpaceTooLarge, match="physical memory"):
            sweep(path_graph(n + 1))
        memory["SC_PHYS_PAGES"] -= 1
        with pytest.raises(StateSpaceTooLarge, match=f"n = {n} needs about"):
            sweep(path_graph(n))


@pytest.mark.parametrize("gateways", ["first", "every other", "all"])
def test_oracle_guard_covers_the_move_kernel_peak(gateways):
    """The oracle's refusal, ``_ORACLE_CELL_BYTES`` per distance cell, bounds
    the peak of a dynamics step, the equilibrium check and a single move on a
    500-node path, each with its oracle built inside the traced region.  The
    all-open profile gathers every column, the worst case of the three."""
    n = 500
    g = path_graph(n)
    s = StrategyProfile.of({"first": [0], "every other": range(0, n, 2), "all": range(n)}[gateways])
    cfg = GameConfig(SUM, 2)
    calls = [
        lambda: run_dynamics(g, cfg, s, RoundRobin(), max_steps=1),
        lambda: is_nash_equilibrium(all_pairs_distances(g), cfg, s),
        lambda: evaluate_move(all_pairs_distances(g), cfg, s, n // 2),
    ]
    per_cell = [traced_peak(call) / (n * n) for call in calls]
    assert max(per_cell) <= graphs._ORACLE_CELL_BYTES, per_cell


def small_gadget_steps(alpha):
    """The 10-node double-path gadget, built at 5, walked at ``alpha`` through
    steps I-IV from {w}: u opens, v opens, u closes, v closes."""
    game = gen_ir_cycle(IrCycleParams(10, 1, 2, Fraction(5)))
    u, v = game.roles["u"], game.roles["v"]
    steps = toggle_walk(game.graph, GameConfig(SUM, alpha), game.initial, (u, v, u, v))
    assert [(m.node, m.kind) for _, _, m in steps] == [
        (u, MoveKind.OPEN), (v, MoveKind.OPEN), (u, MoveKind.CLOSE), (v, MoveKind.CLOSE)
    ]
    assert all(m.cost_delta == after - before for before, after, m in steps)
    return steps


def test_cycle_conditions_small_gadget():
    """Opens that save 6 and 9, closes that regain 4 and 3: at 5 each step
    improves by alpha's distance from its threshold."""
    steps = small_gadget_steps(Fraction(5))
    assert [m.cost_delta for _, _, m in steps] == [5 - 6, 5 - 9, 4 - 5, 3 - 5]
    assert all(m.is_improving for _, _, m in steps)


def test_cycle_conditions_track_alpha():
    """The c = 1 gadget's graph does not depend on alpha.  At 13/2, outside
    its window, above step I's saving of 6: u's open no longer improves,
    and the other three steps still do."""
    alpha = Fraction(13, 2)
    with pytest.raises(ParameterOutOfRange, match="alpha must satisfy"):
        gen_ir_cycle(IrCycleParams(10, 1, 2, alpha))
    steps = small_gadget_steps(alpha)
    assert [m.cost_delta for _, _, m in steps] == [alpha - 6, alpha - 9, 4 - alpha, 3 - alpha]
    assert [m.is_improving for _, _, m in steps] == [False, True, True, True]


def test_max_line_conditions_exact():
    """The MAX line at 5/2 from {u}: w opens, v opens, w closes, v closes,
    each lowering the mover's cost."""
    alpha = Fraction(5, 2)
    game = gen_max_line(alpha)
    v, w = game.roles["v"], game.roles["w"]
    steps = toggle_walk(game.graph, GameConfig(MAX, alpha), game.initial, (w, v, w, v))
    assert [(m.node, m.kind) for _, _, m in steps] == [
        (w, MoveKind.OPEN), (v, MoveKind.OPEN), (w, MoveKind.CLOSE), (v, MoveKind.CLOSE)
    ]
    assert [(before, after) for before, after, _ in steps] == [
        (6, Fraction(11, 2)),
        (6, Fraction(11, 2)),
        (Fraction(11, 2), 4),
        (Fraction(17, 2), 6),
    ]
    assert all(m.is_improving and m.cost_delta == after - before for before, after, m in steps)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_random_walks_replay(seed):
    rnd = random.Random(seed)
    g = path_graph(rnd.randint(3, 6))
    cfg = GameConfig(rnd.choice([SUM, MAX]), Fraction(rnd.randint(1, 12), 2))
    start = StrategyProfile.of([rnd.randrange(g.n)])
    trace = run_dynamics(g, cfg, start, RandomSeeded(seed))
    replay_trace(g, cfg, trace)


def _oracle_improving(g, cfg, state, cache):
    """Per node ``(kind, delta)`` of the hub oracle, and the improving node ids."""
    key = mask_of(state)
    if key not in cache:
        row = [oracle_move(g, cfg.variant, cfg.alpha, state, v) for v in range(g.n)]
        good = [v for v, (_, delta, forbidden) in enumerate(row) if delta < 0 and not forbidden]
        cache[key] = row, good
    return cache[key]


def _cyclic_first(seq, start, good):
    """Index into ``seq`` of the first entry in ``good``, scanning from ``start``."""
    for offset in range(len(seq)):
        i = (start + offset) % len(seq)
        if seq[i] in good:
            return i
    return None


@given(graph_profile_pairs(max_n=6), alphas(), st.sampled_from([SUM, MAX]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dynamics_traces_match_hub_oracle(pair, alpha, variant, seed):
    """Every recorded move, and the node each scheduler picks, agrees with
    the 0-1 BFS hub oracle."""
    g, start = pair
    cfg = GameConfig(variant, alpha)
    rnd = random.Random(seed)
    order = rnd.sample(range(g.n), g.n)
    allowed = frozenset(order[: rnd.randint(1, g.n)])
    cache: dict = {}
    for sched in (RoundRobin(), RandomSeeded(seed), BestGain(), FixedSequence(tuple(order)), OpensOnly(allowed)):
        trace = run_dynamics(g, cfg, start, sched)
        cursor = 0
        for state, move in trace.steps:
            row, good = _oracle_improving(g, cfg, state, cache)
            assert (move.kind.value, move.cost_delta, move.forbidden) == row[move.node]
            assert move.node in good
            if isinstance(sched, RoundRobin):
                assert move.node == _cyclic_first(range(g.n), cursor, good)
                cursor = (move.node + 1) % g.n
            elif isinstance(sched, FixedSequence):
                i = _cyclic_first(sched.nodes, cursor, good)
                assert move.node == sched.nodes[i]
                cursor = (i + 1) % len(sched.nodes)
            elif isinstance(sched, OpensOnly):
                assert move.node == min(v for v in good if v in allowed and v not in state)
            elif isinstance(sched, BestGain):
                assert move.node == min(
                    good, key=lambda v: (row[v][1], row[v][0] != "open", v)
                )
        _, good = _oracle_improving(g, cfg, trace.final, cache)
        if isinstance(trace.outcome, ConvergedToNE):
            assert not good
        elif isinstance(trace.outcome, Stalled):
            assert good
            assert not [v for v in good if v in allowed and v not in trace.final]


def _plain_verdicts(succ):
    """Sinks, states whose every improving path halts, and states that reach
    no sink, as fixed points over Python sets.  ``succ`` maps each state to
    the set of states one improving move away."""
    sinks = {s for s, out in succ.items() if not out}
    halting, reaching = set(sinks), set(sinks)
    changed = True
    while changed:
        changed = False
        for s, out in succ.items():
            if s not in halting and out <= halting:
                halting.add(s)
                changed = True
            if s not in reaching and out & reaching:
                reaching.add(s)
                changed = True
    return sinks, halting, set(succ) - reaching


@given(connected_graphs(max_n=7), st.sampled_from([SUM, MAX]), alphas())
@settings(max_examples=30, deadline=None)
def test_classifier_matches_plain_search_over_hub_oracle(g, variant, alpha):
    """Equilibria, verdict, trapped states and sample cycle agree with plain
    set searches over the hub oracle's move graph, at a drawn price and at
    knife-edge prices around every distance change the graph has."""
    states = [StrategyProfile.from_mask(m) for m in range(1, 1 << g.n)]
    # At alpha = 1 an open's delta is dv + 1 and a close's is dv - 1, so each
    # price p shifts them by p - 1 and 1 - p.
    unit = {(s, v): oracle_move(g, variant, Fraction(1), s, v) for s in states for v in range(g.n)}
    dvs = {delta - 1 if kind == "open" else delta + 1 for kind, delta, _ in unit.values()}
    for price in {alpha} | knife_prices(dvs):
        shift = {"open": price - 1, "close": 1 - price}

        def improves(s, v):
            kind, delta, forbidden = unit[s, v]
            return not forbidden and delta + shift[kind] < 0

        succ = {s: {s.toggled(v) for v in range(g.n) if improves(s, v)} for s in states}
        sinks, halting, trapped = _plain_verdicts(succ)
        report = build_ir_state_graph(g, GameConfig(variant, price))
        assert report.state_count == len(states)
        assert report.ne_states == tuple(s for s in states if s in sinks)
        assert report.trapped == (tuple(s for s in states if s in trapped) or None)
        if len(halting) == len(states):
            assert report.classification is Classification.FIP
            assert report.cycle is None
            continue
        expected = Classification.NOT_WEAKLY_ACYCLIC if trapped else Classification.WEAKLY_ACYCLIC
        assert report.classification is expected
        # The witness: smallest non-halting state, then the move with the
        # lowest toggled bit to a non-halting state, until a state repeats.
        path = [next(s for s in states if s not in halting)]
        while True:
            s = path[-1]
            nxt = min(
                (t for t in succ[s] if t not in halting), key=lambda t: mask_of(t) ^ mask_of(s)
            )
            if nxt in path:
                assert report.cycle == tuple(path[path.index(nxt):])
                break
            path.append(nxt)


def _frontier_walk(moves):
    """The classifier's verdicts by a backward search from the equilibria over
    a boolean ``(n, 2^n)`` move table, one frontier of states at a time: a Kahn
    peel that counts down each state's moves, and a reach.  Returns the sinks,
    the unpeeled states (a boolean row), the trapped masks and the sample
    cycle's masks, or None."""
    n, total = moves.shape

    def backward(frontier, visit):
        # The predecessors of F through bit b are the states F ^ (1 << b)
        # whose toggle of b improves; for a fixed b they are distinct.
        while frontier.size:
            found = []
            for b, row in enumerate(moves):
                pred = frontier ^ (1 << b)
                found.append(visit(pred[row[pred]]))
            frontier = np.concatenate(found)

    deg = moves.sum(axis=0, dtype=np.int8)
    sinks = np.flatnonzero(deg[1:] == 0) + 1

    def peel(pred):
        deg[pred] -= 1
        return pred[deg[pred] == 0]

    backward(sinks, peel)
    alive = deg > 0
    reached = np.zeros(total, dtype=bool)
    reached[0] = True
    reached[sinks] = True

    def reach(pred):
        pred = pred[~reached[pred]]
        reached[pred] = True
        return pred

    backward(sinks, reach)
    if not alive.any():
        return sinks.tolist(), alive, np.flatnonzero(~reached).tolist(), None
    bits = 1 << np.arange(n)
    path = [int(alive.argmax())]
    while True:
        s = path[-1]
        nxt = s ^ (1 << int((moves[:, s] & alive[s ^ bits]).argmax()))
        if nxt in path:
            return sinks.tolist(), alive, np.flatnonzero(~reached).tolist(), path[path.index(nxt):]
        path.append(nxt)


def _assert_walks_agree(g, variant, price):
    """Sinks, the peel's kept states, trapped states and the sample cycle of
    the packed fixpoints equal those of the frontier walk on the unpacked table."""
    table = _engine.term_table(all_pairs_distances(g).dist, maximum=variant is MAX)
    packed = _engine.improving_tables(table, price)
    sinks, alive, trapped, cycle = _frontier_walk(_engine._unpack(packed, 1 << g.n))
    kept = _dynamics._fixpoint(packed, np.bitwise_or.reduce(packed, axis=0), grow=False)
    assert _engine._unpack(kept, 1 << g.n).tolist() == alive.tolist()
    report = build_ir_state_graph(g, GameConfig(variant, price))
    assert [mask_of(s) for s in report.ne_states] == sinks
    assert [mask_of(s) for s in report.trapped or ()] == trapped
    assert (cycle is None) == (report.cycle is None)
    assert [mask_of(s) for s in report.cycle or ()] == (cycle or [])


@given(st.integers(8, 14), st.integers(0, 2**32 - 1), st.sampled_from([SUM, MAX]), st.data())
@settings(max_examples=20, deadline=None)
def test_fixpoint_walk_matches_the_frontier_walk(n, seed, variant, data):
    """On random graphs, at knife-edge prices around the graph's distance changes."""
    g = random_connected_graph(random.Random(seed), n)
    table = _engine.term_table(all_pairs_distances(g).dist, maximum=variant is MAX)
    masks = np.arange(1 << n)
    dvs = set(np.unique([table[v, masks ^ (1 << v)] - table[v] for v in range(n)]).tolist())
    prices = sorted(knife_prices(dvs))
    for price in data.draw(st.lists(st.sampled_from(prices), min_size=1, max_size=4, unique=True)):
        _assert_walks_agree(g, variant, price)


@pytest.mark.parametrize("price", [Fraction(5), Fraction(7), Fraction(15, 2)])
def test_fixpoint_walk_matches_the_frontier_walk_on_the_gadgets(price):
    """On the non-weakly-acyclic and cycle gadgets, whose trapped sets and
    cycles random graphs seldom have."""
    _assert_walks_agree(gen_non_wag(7).graph, SUM, price)
    _assert_walks_agree(gen_ir_cycle(IrCycleParams(10, 1, 2, Fraction(5))).graph, SUM, price)


@pytest.mark.parametrize(
    "make, cfg, rounds",
    [
        (lambda: build_graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 0), (0, 5)]),
         GameConfig(SUM, Fraction(9, 2)), 1),
        (lambda: path_graph(4), GameConfig(MAX, Fraction(1, 2)), 2),
        (lambda: gen_non_wag(7).graph, GameConfig(SUM, Fraction(7)), 10),
        (lambda: gen_ir_cycle(IrCycleParams(12, 1, 3, Fraction(6))).graph,
         GameConfig(SUM, Fraction(6)), 19),
    ],
    ids=["sum-witness-6", "max-path-4", "non-wag-7", "ir-cycle-12"],
)
def test_peel_round_counts_on_the_golden_instances(monkeypatch, make, cfg, rounds):
    """The peel is a Jacobi iteration: round i keeps the states with an
    improving path of at least i + 1 moves, so its round count is a property
    of the move graph, not of how a round is computed, and is pinned here."""
    g = make()
    calls = count_calls(monkeypatch, "_round", "dynamics")
    build_ir_state_graph(g, cfg)
    assert sum(1 for args in calls if not args[-1]) == rounds


def test_golden_sum_witness_is_not_weakly_acyclic():
    """The 6-node SUM witness at 9/2: the all-open profile is the one
    equilibrium, and the 31 profiles with at most one of the triangle's nodes
    1, 2, 3 open can never reach it."""
    g = build_graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 0), (0, 5)])
    report = build_ir_state_graph(g, GameConfig(SUM, Fraction(9, 2)))
    assert report.classification is Classification.NOT_WEAKLY_ACYCLIC
    assert report.state_count == 63
    assert [p.ids for p in report.ne_states] == [(0, 1, 2, 3, 4, 5)]
    trapped = [m for m in range(1, 64) if (m >> 1 & 7).bit_count() <= 1]
    assert [mask_of(p) for p in report.trapped] == trapped and len(trapped) == 31
    assert [p.ids for p in report.cycle] == [(0, 1, 5), (1, 5), (1, 4, 5), (0, 1, 4, 5)]


def test_golden_max_path_is_weakly_acyclic(p4):
    """The 4-node path, MAX at 1/2: a 16-bit move table, so every row is one
    padded word."""
    report = build_ir_state_graph(p4, GameConfig(MAX, Fraction(1, 2)))
    assert report.classification is Classification.WEAKLY_ACYCLIC
    assert report.state_count == 15
    assert [p.ids for p in report.ne_states] == [(0, 3), (0, 1, 2, 3)]
    assert report.trapped is None
    assert [p.ids for p in report.cycle] == [(0,), (0, 2), (0, 1, 2), (0, 1)]


# Runs ``cli.main`` on the JSON argv in sys.argv[1] and prints its exit code,
# its stdout digest and the process's own peak RSS in MB.
PEAK_SCRIPT = """
import contextlib, hashlib, io, json, resource, sys
from gateway_games import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(code, digest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)  # KiB on Linux
"""


def test_max_star_22_sweeps_keep_their_stdout_under_250_mb(tmp_path):
    """The narrow term table's memory: classify and equilibria on the 22-node
    MAX star, whose uint8 table is 22 bytes per profile (the int32 one was 88
    and peaked at 409 MB), print the recorded stdout and peak under 250 MB of
    RSS, each in a process of its own."""
    graph = tmp_path / "g22.json"
    graph.write_text(graph_to_json(gen_max_poa_star(22).graph))
    expected = {
        "classify": "4296a6f3205a3511cf10299f82264bb33dcb849afab0bc7b5fbcedd932ff3ddd",
        "equilibria": "158efa4d518922592e2875ebb6776af8069f1b6a971323ed43d5dbceffe534a5",
    }
    for cmd, digest in expected.items():
        argv = [cmd, "--graph", str(graph), "--variant", "max", "--alpha", "3", "--limit", "22"]
        proc = run_python("-c", PEAK_SCRIPT, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        code, printed, peak = proc.stdout.split()
        assert (code, printed) == ("0", digest)
        assert int(peak) < 250, (cmd, peak)


@pytest.mark.parametrize(
    "scheduler",
    [
        FixedSequence((-1,)),
        FixedSequence((5,)),
        FixedSequence((1, 5)),
        OpensOnly(frozenset({-1})),
        OpensOnly(frozenset({5})),
    ],
    ids=["fixed-negative", "fixed-n", "fixed-after-a-move", "opens-negative", "opens-n"],
)
def test_restricted_scheduler_rejects_out_of_range_node(p5, scheduler):
    """The ids are checked before the first step, not when the scheduler
    reaches them, so a zero step budget refuses them too."""
    cfg = GameConfig(SUM, Fraction(1, 2))
    for max_steps in (None, 0):
        with pytest.raises(NodeIdOutOfRange):
            run_dynamics(p5, cfg, StrategyProfile.of([0]), scheduler, max_steps=max_steps)


@pytest.mark.parametrize("n", [80, 137, 181, 182, 200])
def test_carried_scans_equal_fresh_scans_across_the_oracle_boundary(monkeypatch, n):
    """Every scan ``run_dynamics`` makes on its carried state equals the scan
    of a fresh ``_ProfileState`` of the profile it visits, every step is that
    scan's improving move, and the trace replays.  The graphs lie
    either side of the int16/int32 oracle boundary at 181 nodes; every
    scheduler runs from ``{0}`` and from every third node."""
    rnd = random.Random(n)
    g = random_connected_graph(rnd, n, n // 10)
    d = all_pairs_distances(g)
    assert d.dist.dtype == (np.int16 if n <= 181 else np.int32)
    order = tuple(rnd.sample(range(n), n))
    schedulers = [
        RoundRobin(),
        RandomSeeded(n),
        BestGain(),
        FixedSequence(order),
        OpensOnly(frozenset(order[: n // 2])),
    ]
    closes = 0
    for variant, alpha in ((SUM, Fraction(n, 4)), (SUM, Fraction(3 * n)), (MAX, Fraction(5, 2))):
        cfg = GameConfig(variant, alpha)
        for start in (StrategyProfile.of([0]), StrategyProfile.of(range(0, n, 3))):
            for scheduler in schedulers:
                scans = recorded_scans(monkeypatch)
                trace = run_dynamics(g, cfg, start, scheduler)
                monkeypatch.undo()
                cycled = isinstance(trace.outcome, CycleDetected)
                assert len(scans) == len(trace.steps) + (not cycled)
                moves = [move for _, move in trace.steps] + [None]
                for carried, profile, move in zip(scans, trace.states(), moves):
                    fresh = _ProfileState(d, profile).scan(cfg)
                    assert carried.sole == fresh.sole
                    for field in ("member", "dv", "improving"):
                        assert np.array_equal(getattr(carried, field), getattr(fresh, field))
                    if move is not None:
                        assert fresh.improving[move.node] and fresh.move(move.node) == move
                        closes += move.kind is MoveKind.CLOSE
                assert replay_trace(g, cfg, trace) == trace.states()
    assert closes


def test_run_dynamics_builds_one_oracle(monkeypatch):
    g = random_connected_graph(random.Random(5), 40)
    oracles = count_calls(monkeypatch, "all_pairs_distances")
    builds = count_calls(monkeypatch, "_bitset_distances")
    trace = run_dynamics(g, GameConfig(SUM, Fraction(10)), StrategyProfile.of([0]), BestGain())
    assert trace.steps
    assert (len(oracles), len(builds)) == (1, 1)


def test_replay_scans_every_toggle_only_to_verify_the_equilibrium(monkeypatch):
    g = random_connected_graph(random.Random(7), 30)
    cfg = GameConfig(SUM, Fraction(10))
    converged = run_dynamics(g, cfg, StrategyProfile.of([0]), BestGain())
    assert isinstance(converged.outcome, ConvergedToNE) and len(converged.steps) > 1
    params = IrCycleParams(10, 1, 2, Fraction(5))
    game = gen_ir_cycle(params)
    cycle_cfg = GameConfig(SUM, params.alpha)
    cycling = run_dynamics(
        game.graph, cycle_cfg, game.initial, FixedSequence((game.roles["u"], game.roles["v"]))
    )
    scans = recorded_scans(monkeypatch)
    replay_trace(g, cfg, converged)
    assert len(scans) == 1
    replay_trace(game.graph, cycle_cfg, cycling)
    assert len(scans) == 1
