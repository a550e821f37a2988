import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    GameConfig,
    MoveKind,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    build_graph,
    comm_distance,
    cost_report,
    evaluate_move,
    frac_str,
    improving_moves,
    is_nash_equilibrium,
    parse_fraction,
    private_cost,
    social_cost,
)
from gateway_games.game import ceil_div, ceil_sqrt, floor_div, floor_sqrt

from conftest import (
    alphas,
    count_calls,
    graph_profile_pairs,
    hub_distances,
    oracle_move,
    oracle_private_cost,
    random_connected_graph,
)

SUM = Variant.SUM
MAX = Variant.MAX


def test_profile_rejects_empty():
    with pytest.raises(ValueError):
        StrategyProfile(frozenset())


def test_profile_mask_round_trip():
    s = StrategyProfile.of([4, 1, 2])
    assert s.ids == (1, 2, 4)
    assert StrategyProfile.from_mask(s.mask()) == s
    assert s.toggled(1).ids == (2, 4)
    assert s.toggled(0).ids == (0, 1, 2, 4)


def test_config_requires_positive_alpha():
    with pytest.raises(ValueError):
        GameConfig(SUM, Fraction(0))
    with pytest.raises(ValueError):
        GameConfig(SUM, Fraction(-1))
    assert GameConfig(SUM, 3).alpha == Fraction(3)


def test_path_costs_by_hand(p3):
    d = all_pairs_distances(p3)
    cfg = GameConfig(SUM, Fraction(2))
    s = StrategyProfile.of([1])
    assert private_cost(p3, d, cfg, s, 0) == 3
    assert private_cost(p3, d, cfg, s, 1) == 4
    assert private_cost(p3, d, cfg, s, 2) == 3
    assert social_cost(p3, d, cfg, s) == 10
    cfg_max = GameConfig(MAX, Fraction(2))
    assert private_cost(p3, d, cfg_max, s, 0) == 2
    assert private_cost(p3, d, cfg_max, s, 1) == 3
    assert social_cost(p3, d, cfg_max, s) == 7


def test_cost_report_totals(p4):
    d = all_pairs_distances(p4)
    cfg = GameConfig(SUM, Fraction(5, 2))
    s = StrategyProfile.of([0, 2])
    rep = cost_report(p4, d, cfg, s)
    assert rep.social == sum(rep.private.values())
    assert set(rep.private) == {0, 1, 2, 3}


def test_sole_close_is_forbidden(p3):
    d = all_pairs_distances(p3)
    cfg = GameConfig(SUM, Fraction(2))
    move = evaluate_move(p3, d, cfg, StrategyProfile.of([1]), 1)
    assert move.kind is MoveKind.CLOSE
    assert move.forbidden
    assert move.cost_delta == -2
    assert not move.is_improving


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=120, deadline=None)
def test_private_cost_matches_independent_oracle(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    for v in range(g.n):
        assert private_cost(g, d, cfg, s, v) == oracle_private_cost(
            g, variant, alpha, s, v
        )


@given(graph_profile_pairs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_comm_distance_matches_oracle(pair):
    g, s = pair
    d = all_pairs_distances(g)
    rows = hub_distances(g, s.gateways)
    for u in range(g.n):
        for v in range(g.n):
            got = comm_distance(g, d, s, u, v)
            assert got == rows[u][v]
            assert got <= d.dist_between(u, v)


@given(graph_profile_pairs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_single_gateway_creates_no_shortcuts(pair):
    g, _ = pair
    d = all_pairs_distances(g)
    s = StrategyProfile.of([g.n - 1])
    for u in range(g.n):
        for v in range(g.n):
            assert comm_distance(g, d, s, u, v) == d.dist_between(u, v)


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=80, deadline=None)
def test_move_delta_matches_recomputation(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    for v in range(g.n):
        move = evaluate_move(g, d, cfg, s, v)
        if move.forbidden:
            continue
        before = private_cost(g, d, cfg, s, v)
        after = private_cost(g, d, cfg, s.toggled(v), v)
        assert move.cost_delta == after - before


@given(graph_profile_pairs(max_n=8), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=120, deadline=None)
def test_every_toggle_matches_hub_oracle(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    for v in range(g.n):
        kind, delta, forbidden = oracle_move(g, variant, alpha, s, v)
        move = evaluate_move(g, d, cfg, s, v)
        assert move.kind.value == kind
        assert move.cost_delta == delta
        assert move.forbidden == forbidden
        assert move.is_improving == (delta < 0 and not forbidden)


KNIFE = Fraction(1, 2**41)


@given(graph_profile_pairs(max_n=7), st.sampled_from([SUM, MAX]))
@settings(max_examples=60, deadline=None)
def test_integer_thresholds_hold_at_knife_edge_prices(pair, variant):
    """Prices a hair either side of every distance change the profile offers,
    and a huge non-dyadic one: the integer decision must equal the exact
    Fraction comparison."""
    g, s = pair
    d = all_pairs_distances(g)
    plain = {v: oracle_move(g, variant, Fraction(1), s, v) for v in range(g.n)}
    # With alpha = 1 the oracle delta is dv + 1 (open) or dv - 1 (close).
    dvs = {
        abs(delta - 1 if kind == "open" else delta + 1)
        for kind, delta, _ in plain.values()
    }
    prices = {Fraction(2**70 + 1, 3)}
    for k in dvs:
        prices |= {k + KNIFE, k, k - KNIFE} if k >= 1 else {KNIFE}
    for alpha in prices:
        cfg = GameConfig(variant, alpha)
        expected = []
        for v in range(g.n):
            kind, delta, forbidden = oracle_move(g, variant, alpha, s, v)
            if delta < 0 and not forbidden:
                expected.append(v)
        assert [m.node for m in improving_moves(g, d, cfg, s)] == expected
        assert is_nash_equilibrium(g, d, cfg, s) == (not expected)


def test_oracle_of_another_graph_is_rejected(p4, c4):
    cfg = GameConfig(SUM, Fraction(2))
    s = StrategyProfile.of([0])
    wrong = all_pairs_distances(c4)
    calls = [
        lambda: comm_distance(p4, wrong, s, 0, 1),
        lambda: private_cost(p4, wrong, cfg, s, 0),
        lambda: social_cost(p4, wrong, cfg, s),
        lambda: cost_report(p4, wrong, cfg, s),
        lambda: evaluate_move(p4, wrong, cfg, s, 1),
        lambda: improving_moves(p4, wrong, cfg, s),
        lambda: is_nash_equilibrium(p4, wrong, cfg, s),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different graph"):
            call()
    # An oracle of an equal graph built separately is accepted.
    twin = all_pairs_distances(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert social_cost(p4, twin, cfg, s) == social_cost(p4, all_pairs_distances(p4), cfg, s)


def test_cost_queries_run_no_bfs(monkeypatch):
    g = random_connected_graph(random.Random(3), 40)
    d = all_pairs_distances(g)
    bfs = count_calls(monkeypatch, "multi_source_levels")
    s = StrategyProfile.of(range(0, 40, 3))
    for variant in (SUM, MAX):
        cfg = GameConfig(variant, Fraction(7, 2))
        improving_moves(g, d, cfg, s)
        is_nash_equilibrium(g, d, cfg, s)
        social_cost(g, d, cfg, s)
    assert bfs == []


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=60, deadline=None)
def test_equilibrium_iff_no_improving_moves(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    moves = improving_moves(g, d, cfg, s)
    assert [m.node for m in moves] == sorted(m.node for m in moves)
    assert is_nash_equilibrium(g, d, cfg, s) == (not moves)
    assert all(m.is_improving for m in moves)


@given(graph_profile_pairs(min_n=2, max_n=7), alphas())
@settings(max_examples=80, deadline=None)
def test_all_gateways_equilibrium_thresholds(pair, alpha):
    """Closing at the full profile costs exactly (n-1) - alpha for the sum
    objective and 1 - alpha for the max objective, so the full profile is an
    equilibrium exactly up to those prices."""
    g, _ = pair
    d = all_pairs_distances(g)
    full = StrategyProfile.of(range(g.n))
    assert is_nash_equilibrium(g, d, GameConfig(SUM, alpha), full) == (alpha <= g.n - 1)
    assert is_nash_equilibrium(g, d, GameConfig(MAX, alpha), full) == (alpha <= 1)


def test_frac_str_always_has_denominator():
    assert frac_str(Fraction(15)) == "15/1"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert frac_str(3) == "3/1"


def test_parse_fraction_accepts_common_forms():
    assert parse_fraction("5/2") == Fraction(5, 2)
    assert parse_fraction("3.5") == Fraction(7, 2)
    assert parse_fraction(" 7 ") == Fraction(7)
    with pytest.raises(ValueError):
        parse_fraction("nope")


@given(st.fractions(min_value=0, max_value=Fraction(10**9)))
@settings(max_examples=200, deadline=None)
def test_sqrt_helpers(x):
    f = floor_sqrt(x)
    c = ceil_sqrt(x)
    assert Fraction(f * f) <= x < Fraction((f + 1) * (f + 1))
    assert c == f + (0 if Fraction(f * f) == x else 1)


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100)))
@settings(max_examples=200, deadline=None)
def test_floor_ceil_div(x):
    assert Fraction(floor_div(x)) <= x < Fraction(floor_div(x) + 1)
    assert Fraction(ceil_div(x) - 1) < x <= Fraction(ceil_div(x))
