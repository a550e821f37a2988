import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    BestGain,
    BudgetExhausted,
    Classification,
    ConvergedToNE,
    CycleDetected,
    FixedSequence,
    GameConfig,
    IrCycleParams,
    MoveKind,
    NodeIdOutOfRange,
    OpensOnly,
    RandomSeeded,
    RoundRobin,
    Stalled,
    StateSpaceTooLarge,
    StrategyProfile,
    Variant,
    build_graph,
    build_ir_state_graph,
    default_step_budget,
    gen_ir_cycle,
    gen_non_wag,
    reaches_ne_from,
    replay_trace,
    resolve_exhaustive_limit,
    run_dynamics,
    verify_cycle_conditions,
    verify_max_line_conditions,
)

from conftest import (
    alphas,
    connected_graphs,
    count_calls,
    graph_profile_pairs,
    oracle_move,
    path_graph,
    random_connected_graph,
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


def test_restricted_scheduler_stalls(p3):
    cfg = GameConfig(SUM, Fraction(100))
    start = StrategyProfile.of([0, 1])
    for scheduler in (FixedSequence((2,)), OpensOnly(frozenset({2}))):
        trace = run_dynamics(p3, cfg, start, scheduler)
        assert isinstance(trace.outcome, Stalled)
        assert trace.outcome.profile == start


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
    with pytest.raises(ValueError):
        replay_trace(p5, cfg, tampered)


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
    report = build_ir_state_graph(game.graph, GameConfig(SUM, Fraction(5)))
    assert report.classification is not Classification.FIP
    assert report.cycle is not None and len(report.cycle) >= 2


def test_non_wag_gadget_traps_initial_state():
    game = gen_non_wag()
    cfg = GameConfig(SUM, Fraction(7))
    report = build_ir_state_graph(game.graph, cfg)
    assert report.classification is Classification.NOT_WEAKLY_ACYCLIC
    assert game.initial in report.trapped
    ok, path = reaches_ne_from(game.graph, cfg, game.initial)
    assert not ok and path is None


def test_reaches_ne_returns_shortest_witness(triangle):
    cfg = GameConfig(SUM, Fraction(1, 2))
    ok, path = reaches_ne_from(triangle, cfg, StrategyProfile.of([0]))
    assert ok
    assert path[0] == StrategyProfile.of([0])
    assert path[-1] == StrategyProfile.of([0, 1, 2])
    assert len(path) == 3


def test_state_space_cap(p5):
    with pytest.raises(StateSpaceTooLarge):
        build_ir_state_graph(p5, GameConfig(SUM, 1), exhaustive_limit=4)
    with pytest.raises(StateSpaceTooLarge):
        reaches_ne_from(p5, GameConfig(SUM, 1), StrategyProfile.of([0]), exhaustive_limit=4)


def test_exhaustive_limit_env(monkeypatch):
    monkeypatch.delenv("GATEWAY_GAMES_EXHAUSTIVE_LIMIT", raising=False)
    assert resolve_exhaustive_limit(None) == 20
    assert resolve_exhaustive_limit(11) == 11
    monkeypatch.setenv("GATEWAY_GAMES_EXHAUSTIVE_LIMIT", "6")
    assert resolve_exhaustive_limit(None) == 6


def test_cycle_conditions_small_gadget():
    reports = verify_cycle_conditions(IrCycleParams(10, 1, 2, Fraction(5)))
    assert [r.label for r in reports] == ["I", "II", "III", "IV"]
    assert [r.threshold for r in reports] == [6, 9, 4, 3]
    assert all(r.holds and r.agrees for r in reports)
    assert all(r.simulated_threshold == r.threshold for r in reports)
    assert [r.sense for r in reports] == ["<", "<", ">", ">"]


def test_cycle_conditions_track_alpha():
    """With alpha outside a window the matching inequality must fail."""
    reports = verify_cycle_conditions(IrCycleParams(10, 1, 2, Fraction(13, 2)))
    by_label = {r.label: r for r in reports}
    assert not by_label["I"].holds
    assert by_label["III"].holds
    assert all(r.agrees for r in reports)


def test_max_line_conditions_exact():
    reports = verify_max_line_conditions(Fraction(5, 2))
    table = {r.label: (r.before, r.after) for r in reports}
    assert table == {
        "I": (6, Fraction(11, 2)),
        "II": (6, Fraction(11, 2)),
        "III": (Fraction(11, 2), 4),
        "IV": (Fraction(17, 2), 6),
    }
    assert all(r.holds and r.agrees for r in reports)
    assert all(
        (r.simulated_before, r.simulated_after) == (r.before, r.after) for r in reports
    )


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
    key = state.mask()
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
    cfg = GameConfig(SUM, Fraction(1, 2))
    with pytest.raises(NodeIdOutOfRange):
        run_dynamics(p5, cfg, StrategyProfile.of([0]), scheduler)


def test_run_dynamics_builds_one_oracle(monkeypatch):
    g = random_connected_graph(random.Random(5), 40)
    oracles = count_calls(monkeypatch, "all_pairs_distances")
    bfs = count_calls(monkeypatch, "multi_source_levels")
    trace = run_dynamics(g, GameConfig(SUM, Fraction(10)), StrategyProfile.of([0]), BestGain())
    assert trace.steps
    assert len(oracles) == 1
    assert len(bfs) == g.n
