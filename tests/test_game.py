import itertools
import math
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    DistanceOracle,
    GameConfig,
    MoveKind,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    build_graph,
    evaluate_move,
    frac_str,
    greedy_gateways,
    improving_moves,
    is_nash_equilibrium,
    metrics,
    private_cost,
    social_cost,
    twin_classes,
)
from gateway_games import _engine
from gateway_games import dynamics as _dynamics
from gateway_games.game import _ProfileState, floor_sqrt

from conftest import (
    KNIFE,
    alphas,
    connected_graphs,
    count_calls,
    graph_profile_pairs,
    hub_distances,
    knife_prices,
    mask_of,
    oracle_move,
    oracle_private_cost,
    path_graph,
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
    assert StrategyProfile.from_mask(mask_of(s)) == s
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
    assert private_cost(d, cfg, s, 0) == 3
    assert private_cost(d, cfg, s, 1) == 4
    assert private_cost(d, cfg, s, 2) == 3
    assert social_cost(d, cfg, s) == 10
    cfg_max = GameConfig(MAX, Fraction(2))
    assert private_cost(d, cfg_max, s, 0) == 2
    assert private_cost(d, cfg_max, s, 1) == 3
    assert social_cost(d, cfg_max, s) == 7


def test_sole_close_is_forbidden(p3):
    d = all_pairs_distances(p3)
    cfg = GameConfig(SUM, Fraction(2))
    move = evaluate_move(d, cfg, StrategyProfile.of([1]), 1)
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
        assert private_cost(d, cfg, s, v) == oracle_private_cost(
            g, variant, alpha, s, v
        )
    assert social_cost(d, cfg, s) == sum(private_cost(d, cfg, s, v) for v in range(g.n))


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=60, deadline=None)
def test_single_gateway_creates_no_shortcuts(pair, alpha, variant):
    """With one gateway every hub route is at least the plain distance, so
    each node pays its plain distance row sum (or maximum), plus alpha if it
    is the gateway."""
    g, _ = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    s = StrategyProfile.of([g.n - 1])
    agg = max if variant is MAX else sum
    for v in range(g.n):
        fee = alpha if v == g.n - 1 else 0
        assert private_cost(d, cfg, s, v) == fee + agg(d.dist[v].tolist())


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=80, deadline=None)
def test_move_delta_matches_recomputation(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    for v in range(g.n):
        move = evaluate_move(d, cfg, s, v)
        if move.forbidden:
            continue
        before = private_cost(d, cfg, s, v)
        after = private_cost(d, cfg, s.toggled(v), v)
        assert move.cost_delta == after - before


@given(graph_profile_pairs(max_n=8), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=120, deadline=None)
def test_every_toggle_matches_hub_oracle(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    for v in range(g.n):
        kind, delta, forbidden = oracle_move(g, variant, alpha, s, v)
        move = evaluate_move(d, cfg, s, v)
        assert move.kind.value == kind
        assert move.cost_delta == delta
        assert move.forbidden == forbidden
        assert move.is_improving == (delta < 0 and not forbidden)


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
    dvs = {delta - 1 if kind == "open" else delta + 1 for kind, delta, _ in plain.values()}
    for alpha in knife_prices(dvs):
        cfg = GameConfig(variant, alpha)
        expected = []
        for v in range(g.n):
            kind, delta, forbidden = oracle_move(g, variant, alpha, s, v)
            if delta < 0 and not forbidden:
                expected.append(v)
        assert [m.node for m in improving_moves(d, cfg, s)] == expected
        assert is_nash_equilibrium(d, cfg, s) == (not expected)


@given(graph_profile_pairs(max_n=8), st.sampled_from([SUM, MAX]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_single_move_equals_the_full_scan_at_knife_edge_prices(pair, variant, sole):
    """``evaluate_move`` gives the scan's move and the hub oracle's for every
    node, the sole gateway's forbidden close included."""
    g, s = pair
    if sole:
        s = StrategyProfile.of(s.ids[:1])
    d = all_pairs_distances(g)
    plain = {v: oracle_move(g, variant, Fraction(1), s, v) for v in range(g.n)}
    dvs = {delta - 1 if kind == "open" else delta + 1 for kind, delta, _ in plain.values()}
    for alpha in knife_prices(dvs):
        cfg = GameConfig(variant, alpha)
        scan = _ProfileState(d, s).scan(cfg)
        for v in range(g.n):
            move = evaluate_move(d, cfg, s, v)
            assert move == scan.move(v)
            assert (move.kind.value, move.cost_delta, move.forbidden) == oracle_move(
                g, variant, alpha, s, v
            )


@given(graph_profile_pairs(max_n=8), alphas(), st.sampled_from([SUM, MAX]), st.data())
@settings(max_examples=60, deadline=None)
def test_carried_state_equals_a_fresh_build_after_any_toggles(pair, alpha, variant, data):
    """Toggles in any order, then closes down to one gateway, then reopens:
    after each, the carried rows equal a fresh build of the profile, and the
    scan's move and verdict for every node equal the hub oracle's.  Closing
    the sole gateway raises and leaves the state as it was."""
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    state = _ProfileState(d, s)

    def toggle(v):
        nonlocal s
        if s.gateways == {v}:
            with pytest.raises(ValueError, match="sole gateway"):
                state.toggle(v)
        else:
            state.toggle(v)
            s = s.toggled(v)
        fresh = _ProfileState(d, s)
        assert (state.count, state.member.tolist()) == (fresh.count, fresh.member.tolist())
        assert (state.a.tolist(), state.base.tolist()) == (fresh.a.tolist(), fresh.base.tolist())
        scan = state.scan(cfg)
        for u in range(g.n):
            kind, delta, forbidden = oracle_move(g, variant, alpha, s, u)
            move = scan.move(u)
            assert (move.kind.value, move.cost_delta, move.forbidden) == (kind, delta, forbidden)
            assert bool(scan.improving[u]) == (delta < 0 and not forbidden)

    for v in data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)):
        toggle(v)
    keep = data.draw(st.sampled_from(s.ids))
    for v in [v for v in s.ids if v != keep] + [keep]:
        toggle(v)  # the others close first, so keep's close is the sole gateway's and raises
    others = data.draw(st.permutations([v for v in range(g.n) if v != keep]))
    for v in others[: data.draw(st.integers(min(1, len(others)), len(others)))]:
        toggle(v)


def boundary_graph(kind, n):
    if kind == "path":
        return path_graph(n)  # its end rows hold the largest SUM terms
    if kind == "star":
        return build_graph(n, [(0, v) for v in range(1, n)])
    return random_connected_graph(random.Random(n), n)


@pytest.mark.parametrize("kind", ["path", "star", "random"])
@pytest.mark.parametrize(("n", "dtype"), [(181, np.int16), (182, np.int32)])
def test_narrow_oracle_is_exact_at_the_int16_boundary(kind, n, dtype):
    """On either side of the int16 rule, every per-profile query on the narrow
    oracle equals the same query on an int64 copy and the hub oracle: the
    scan's ``dv``, verdicts and move for each node, sampled nodes' single
    moves, each node's distance to the nearest gateway and private cost, the
    social cost and the greedy profile."""
    g = boundary_graph(kind, n)
    d = all_pairs_distances(g)
    wide = DistanceOracle(g, d.dist.astype(np.int64))
    assert d.dist.dtype == dtype
    rnd = random.Random(kind)
    profiles = [
        StrategyProfile.of([0]),
        StrategyProfile.of(range(0, n, 2)),
        StrategyProfile.of(rnd.sample(range(n), n // 3)),
    ]
    prices = [Fraction(1, 2), Fraction(n), Fraction(10**9), n // 2 + KNIFE]
    for s in profiles:
        rows = hub_distances(g, s.gateways)
        assert _ProfileState(d, s).a.tolist() == [min(row[v] for v in s) for row in rows]
        movers = [0, n - 1, min(s.ids), rnd.randrange(n)]
        after = {v: hub_distances(g, s.toggled(v).gateways)[v] for v in movers if s.ids != (v,)}
        for variant in (SUM, MAX):
            agg = max if variant is MAX else sum
            terms = [agg(row) for row in rows]
            for alpha in prices:
                cfg = GameConfig(variant, alpha)
                scan, reference = _ProfileState(d, s).scan(cfg), _ProfileState(wide, s).scan(cfg)
                assert scan.dv.tolist() == reference.dv.tolist()
                assert scan.improving.tolist() == reference.improving.tolist()
                assert {v: int(scan.dv[v]) for v in after} == {
                    v: agg(row) - terms[v] for v, row in after.items()
                }
                moves = [scan.move(v) for v in range(n)]
                assert moves == [reference.move(v) for v in range(n)]
                assert [evaluate_move(d, cfg, s, v) for v in movers] == [moves[v] for v in movers]
                fees = [alpha if v in s else 0 for v in range(n)]
                assert [private_cost(d, cfg, s, v) for v in range(n)] == [
                    fee + term for fee, term in zip(fees, terms)
                ]
                assert social_cost(d, cfg, s) == alpha * len(s) + sum(terms)
    for variant, alpha in ((SUM, 32 * n), (MAX, n)):  # prices where greedy opens a few nodes
        cfg = GameConfig(variant, Fraction(alpha))
        assert greedy_gateways(d, cfg) == greedy_gateways(wide, cfg)


@given(connected_graphs(max_n=7), st.sampled_from([SUM, MAX]))
@settings(max_examples=30, deadline=None)
def test_sweep_tables_and_move_kernel_share_one_rule(g, variant):
    """Every row of the exhaustive tables equals the per-profile kernel's
    verdict, at knife-edge prices around every distance change the graph has."""
    d = all_pairs_distances(g)
    table = _engine.term_table(d.dist, maximum=variant is MAX)
    masks = range(1, 1 << g.n)
    dvs = set()
    for mask in masks:
        toggles = _ProfileState(d, StrategyProfile.from_mask(mask)).scan(GameConfig(variant, 1))
        dv = [int(table[v, mask ^ (1 << v)]) - int(table[v, mask]) for v in range(g.n)]
        assert toggles.dv.tolist() == dv
        dvs.update(dv)
    for alpha in knife_prices(dvs):
        cfg = GameConfig(variant, alpha)
        packed = _engine.improving_tables(table, alpha)
        assert packed.shape == (g.n, max(1, (1 << g.n) // 64))
        moves = _engine._unpack(packed, 64 * packed.shape[1])
        assert not moves[:, 0].any()
        assert not moves[:, 1 << g.n :].any()  # the pad bits of a short row
        for mask in masks:
            toggles = _ProfileState(d, StrategyProfile.from_mask(mask)).scan(cfg)
            assert moves[:, mask].tolist() == toggles.improving.tolist()


def assert_moves_match_a_gather(table):
    """``improving_tables`` against a per-node gather: each node's toggled
    terms taken with ``masks ^ bit`` in int64, so that a uint8 table does not
    wrap, and each ``dv`` decided as a Fraction.  Cells off the mask follow
    the open rule and cells on it the close rule."""
    n = table.shape[0]
    wide = table.astype(np.int64)
    masks = np.arange(1 << n)
    dv = np.stack([wide[v, masks ^ (1 << v)] - wide[v] for v in range(n)])
    member = (masks >> np.arange(n)[:, None] & 1) == 1
    sole = masks == 1 << np.arange(n)[:, None]
    values = np.unique(dv)
    for alpha in knife_prices(values.tolist()):
        opens = np.isin(dv, [x for x in values.tolist() if alpha + x < 0])
        closes = np.isin(dv, [x for x in values.tolist() if x - alpha < 0])
        packed = _engine.improving_tables(table, alpha)
        moves = _engine._unpack(packed, 64 * packed.shape[1])
        assert not moves[:, 1 << n :].any()  # the pad bits of a short row
        moves = moves[:, : 1 << n]
        assert ((moves & ~member) == (opens & ~member & (masks != 0))).all()
        assert ((moves & member) == (closes & member & ~sole)).all()


@given(connected_graphs(min_n=9, max_n=13), st.sampled_from([SUM, MAX]), st.randoms())
@settings(max_examples=8, deadline=None)
def test_block_swap_tables_match_a_gather_per_node(g, variant, rnd):
    """On the graph's uint8 table, the sub-word tables of n = 1..5 (one
    padded word per row) and a synthetic int16 table of the graph's shape
    with terms on a few levels up to 3999, so that ``dv`` of either sign runs
    past 255 while the knife-edge prices stay few."""
    table = _engine.term_table(all_pairs_distances(g).dist, maximum=variant is MAX)
    assert table.dtype == np.uint8
    assert_moves_match_a_gather(table)
    for n in range(1, 6):
        small = all_pairs_distances(random_connected_graph(random.Random(rnd.randrange(2**32)), n))
        assert_moves_match_a_gather(_engine.term_table(small.dist, maximum=variant is MAX))
    levels = [0, 1, 200, 255, 256, 257, 300, 1000, 3999]
    terms = np.random.default_rng(rnd.randrange(2**32)).choice(levels, table.shape)
    nodes = np.arange(g.n)
    terms[nodes, 1 << nodes] = terms[:, 0]  # as in every term table: v alone keeps its plain term
    assert_moves_match_a_gather(terms.astype(np.int16))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows as packed sets, one bit per mask, whole words zero-padded."""
    octets = np.packbits(bits, axis=-1, bitorder="little")
    width = max(8, octets.shape[-1])
    padded = np.zeros(bits.shape[:-1] + (width,), dtype=np.uint8)
    padded[..., : octets.shape[-1]] = octets
    return padded.view(_engine._WORD)


def _boolean_round(moves: np.ndarray, x: np.ndarray, grow: bool) -> np.ndarray:
    """A round of the classifier's fixpoints on boolean sets, each toggle taken
    as ``x[masks ^ (1 << b)]``: ``OR_b moves_b & x[masks ^ (1 << b)]``, with
    ``x`` itself for the reach (``grow=True``)."""
    masks = np.arange(x.shape[0])
    out = x.copy() if grow else np.zeros_like(x)
    for b in range(moves.shape[0]):
        out |= moves[b] & x[masks ^ (1 << b)]
    return out


def _boolean_fixpoint(moves: np.ndarray, x: np.ndarray, grow: bool) -> tuple[np.ndarray, int]:
    """``_boolean_round`` from ``x`` until nothing changes, and its round count."""
    rounds = 1
    while not np.array_equal(out := _boolean_round(moves, x, grow), x):
        x, rounds = out, rounds + 1
    return x, rounds


def _dirty_toggled(n: int) -> np.ndarray:
    """A toggled buffer for ``_round`` with every bit set, so an unwritten row shows."""
    return np.full((n, max(1, (1 << n) // 64)), np.iinfo(np.uint64).max, dtype=_engine._WORD)


@given(st.integers(1, 14), st.data())
@settings(max_examples=40, deadline=None)
def test_packed_toggle_step_matches_a_gather(n, data):
    """A round of the classifier's fixpoints on packed sets equals the boolean
    round, every bit reading ``x`` as the round found it, whatever the toggled
    buffer held before.  ``_toggled_in_word`` gives each in-word toggle and
    the pad bits stay clear."""
    rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    masks = np.arange(1 << n)
    density = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
    moves, x = rnd.random((n, 1 << n)) < density, rnd.random(1 << n) < density
    words = max(1, (1 << n) // 64)
    toggled = _engine._toggled_in_word(_pack(x), _dirty_toggled(n)[:6])
    toggled = _engine._unpack(toggled, 64 * words)
    for b in range(min(n, 6)):
        assert toggled[b, : 1 << n].tolist() == x[masks ^ (1 << b)].tolist()
    for grow in (False, True):
        packed = _dynamics._round(_pack(moves), _pack(x), _dirty_toggled(n), grow)
        assert packed.shape == (words,)
        bits = _engine._unpack(packed, 64 * words)
        assert bits[: 1 << n].tolist() == _boolean_round(moves, x, grow).tolist()
        assert not bits[1 << n :].any()


def _assert_fixpoints_match(n: int, rnd: np.random.Generator, density: float) -> None:
    """Both packed fixpoints equal the boolean round iterated to convergence,
    in as many rounds, with the pad bits clear: the peel from the states with
    a move, the reach from a random seed and from the peel's complement."""
    moves = rnd.random((n, 1 << n)) < density
    packed = _pack(moves)
    kept, _ = _boolean_fixpoint(moves, moves.any(axis=0), False)
    seeds = [(False, moves.any(axis=0)), (True, rnd.random(1 << n) < density / 4), (True, ~kept)]
    for grow, x in seeds:
        expected, rounds = _boolean_fixpoint(moves, x, grow)
        with mock.patch.object(_dynamics, "_round", wraps=_dynamics._round) as spy:
            got = _dynamics._fixpoint(packed, _pack(x), grow)
        bits = _engine._unpack(got, 64 * got.shape[0])
        assert bits[: 1 << n].tolist() == expected.tolist(), (grow, density)
        assert not bits[1 << n :].any()
        assert spy.call_count == rounds


@pytest.mark.parametrize("n", range(1, 10))
def test_fixpoints_match_boolean_fixpoints_at_every_small_n(n):
    """Every n either side of the 6-bit word boundary, sparse to dense tables."""
    rnd = np.random.default_rng(n)
    for density in (0.02, 0.1, 0.3, 0.6, 0.95):
        for _ in range(4):
            _assert_fixpoints_match(n, rnd, density)


@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.1, 0.3, 0.6]))
@settings(max_examples=30, deadline=None)
def test_fixpoints_match_boolean_fixpoints(n, seed, density):
    _assert_fixpoints_match(n, np.random.default_rng(seed), density)


@pytest.mark.parametrize("variant", [SUM, MAX])
def test_batched_terms_equal_one_call_per_profile(variant):
    """A trailing batch axis changes nothing: the sweep's uint8 and int16
    batches match the move kernel's 1-D int64 calls, for a profile's own base
    and for another."""
    rnd = random.Random(5)
    g = random_connected_graph(rnd, 17)
    dist = all_pairs_distances(g).dist
    assert dist.sum(axis=1).max() <= 255  # within the uint8 bound
    profiles = [rnd.sample(range(17), rnd.randint(1, 17)) for _ in range(40)]
    a = np.stack([dist[:, gates].min(axis=1) for gates in profiles], axis=1)
    base = np.array([[rnd.randrange(2 * 17) for _ in profiles] for _ in range(17)])
    maximum = variant is MAX
    for b in (a, base):
        single = [_engine._terms(dist, a[:, p], b[:, p], maximum) for p in range(len(profiles))]
        for dtype in (np.uint8, np.int16):
            dn, an = dist.astype(dtype)[:, :, None], a.astype(dtype)
            batched = _engine._terms(dn, an, b.astype(dtype), maximum)
            assert batched.dtype == dtype
            assert batched.tolist() == np.stack(single, axis=1).tolist()


def lone_layout(dist, maximum):
    """The search layout with every node alone, so any mask will do."""
    return _engine._SearchLayout(dist, [(v,) for v in range(dist.shape[0])], maximum)


def sums_for_masks(dist, masks, maximum):
    """``term_sums_for_masks`` with every node alone."""
    return _engine.term_sums_for_masks(lone_layout(dist, maximum), masks)


def hub_terms(g, variant, mask):
    rows = hub_distances(g, frozenset(v for v in range(g.n) if mask >> v & 1))
    return [max(row) if variant is MAX else sum(row) for row in rows]


@given(connected_graphs(min_n=9, max_n=18), st.sampled_from([SUM, MAX]), st.randoms())
@settings(max_examples=12, deadline=None)
def test_sweep_terms_across_byte_groups_match_hub_oracle(g, variant, rnd):
    """Masks over two or three lookup-table bytes: the empty one, the top node
    alone, everyone, everyone outside the low byte, and random ones."""
    n = g.n
    full = (1 << n) - 1
    masks = [0, 1 << (n - 1), full, full & ~0xFF] + [rnd.randrange(1 << n) for _ in range(8)]
    d = all_pairs_distances(g)
    table = _engine.term_table(d.dist, maximum=variant is MAX)
    sums = sums_for_masks(d.dist, np.array(masks, dtype=np.int64), variant is MAX)
    for mask, total in zip(masks, sums.tolist()):
        terms = hub_terms(g, variant, mask)
        assert table[:, mask].tolist() == terms
        assert total == sum(terms)


@pytest.mark.parametrize("variant", [SUM, MAX])
def test_term_sums_keep_headroom_at_63_nodes(variant):
    """A 63-node path has the largest terms the bounded search can reach."""
    g = path_graph(63)
    masks = [0, 1, 1 << 62, 1 | 1 << 62]
    sums = sums_for_masks(all_pairs_distances(g).dist, np.array(masks, dtype=np.int64), variant is MAX)
    assert sums.tolist() == [sum(hub_terms(g, variant, mask)) for mask in masks]


def leafy_path(*leaf_at):
    """A 22-node path with one pendant leaf on each node of ``leaf_at``."""
    edges = [(i, i + 1) for i in range(21)]
    return build_graph(22 + len(leaf_at), edges + [(v, 22 + k) for k, v in enumerate(leaf_at)])


def plain_terms(dist, masks, maximum):
    """Node terms per mask straight from the formula in int64, shape (n, P):
    ``a`` is a masked minimum over the gateways' columns, ``n`` with none."""
    n = dist.shape[0]
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    a = np.where(member[:, None, :], dist[None], n).min(axis=2)
    through = np.minimum(dist[None], a[:, :, None] + a[:, None, :])
    return (through.max(axis=2) if maximum else through.sum(axis=2)).T


def term_chunks(dist, masks, maximum):
    """``_twin_rows``' chunks with every node alone, so each row is one node's
    and weighs 1: their dtypes, widths, and the terms joined."""
    chunks = list(_engine._twin_rows(lone_layout(dist, maximum), masks))
    assert all((weights == 1).all() for _, _, weights in chunks)
    terms = [t for _, t, _ in chunks]
    widths = [t.shape[1] for t in terms]
    return {t.dtype for t in terms}, widths, np.concatenate(terms, axis=1)


def dense_ends(monkeypatch, dist, maximum, count=2):
    """The first and the last ``count`` chunks of the dense generator, each
    copied, since the generator writes every chunk into the same buffers.
    The chunks between are drawn with ``_terms`` stubbed out, so the pass
    costs only their ``a``; the generator looks ``_terms`` up at every chunk."""
    chunks = ((columns, terms.copy()) for columns, terms in _engine._dense_term_rows(dist, maximum))
    first = list(itertools.islice(chunks, count))
    between = (1 << dist.shape[0]) // first[0][0].stop - 2 * count
    with monkeypatch.context() as mp:
        mp.setattr(_engine, "_terms", lambda *args: np.empty(0))
        deque(itertools.islice(chunks, between), maxlen=0)
    return first + list(chunks)


@pytest.mark.parametrize(
    ("g", "row_sum", "dtype"),
    [
        pytest.param(leafy_path(10, 10), 255, np.uint8, id="row-sum-255"),
        pytest.param(leafy_path(9, 10), 256, np.int16, id="row-sum-256"),
        pytest.param(path_graph(23), 253, np.uint8, id="path-23"),
        pytest.param(path_graph(24), 276, np.int16, id="path-24"),
    ],
)
def test_sum_terms_at_the_uint8_boundary(monkeypatch, g, row_sum, dtype):
    """SUM terms go to uint8 while every distance row sums to at most 255, and
    to int16 past it.  Mask 0 gives each node its whole row sum, so a uint8
    kernel one past the bound wraps there.  ``term_table`` stores exactly
    these per-node rows for every mask; at n >= 23 it would need 2^23
    columns, so its rows are checked here through ``_twin_rows`` and the
    first and last chunks of ``_dense_term_rows``, mask 0 among them."""
    dist = all_pairs_distances(g).dist
    assert int(dist.sum(axis=1).max()) == row_sum
    rnd = random.Random(row_sum)
    masks = [0, 1, 1 << (g.n - 1), (1 << g.n) - 1] + [rnd.randrange(1 << g.n) for _ in range(12)]
    expected = [hub_terms(g, SUM, mask) for mask in masks]
    masks = np.array(masks, dtype=np.int64)
    dtypes, _, rows = term_chunks(dist, masks, False)
    assert dtypes == {np.dtype(dtype)}
    assert rows.T.tolist() == expected
    sums = sums_for_masks(dist, masks, False)
    assert sums.tolist() == [sum(terms) for terms in expected]
    ends = dense_ends(monkeypatch, dist, False)
    assert ends[0][0].start == 0 and ends[-1][0].stop == 1 << g.n
    assert len(ends) == 4
    for columns, terms in ends:
        assert terms.dtype == dtype
        span = np.arange(columns.start, columns.stop, dtype=np.int64)
        assert terms.tolist() == plain_terms(dist, span, False).tolist()
    # term_table keeps that dtype: with no chunk drawn, it allocates its
    # (n, 2^n) table untouched, so no page of it is ever written.
    with monkeypatch.context() as mp:
        mp.setattr(_engine, "_dense_term_rows", lambda dist, maximum: iter(()))
        table = _engine.term_table(dist, maximum=False)
        assert table.shape == (g.n, 1 << g.n) and table.dtype == dtype


@pytest.mark.parametrize(("n", "dtype"), [(127, np.uint8), (128, np.int16)])
def test_max_terms_at_the_uint8_boundary(n, dtype):
    """MAX terms go to uint8 while the sentinel sum ``2n`` fits in a byte.
    At mask 0 every ``a(v) + a(u)`` is ``2n``, which wraps to 0 at n = 128.
    Masks are int64, so the gateways are among nodes 0..62."""
    g = path_graph(n)
    dist = all_pairs_distances(g).dist
    masks = [0, 1, 1 << 31, 1 << 62, (1 << 63) - 1]
    expected = [hub_terms(g, MAX, mask) for mask in masks]
    masks = np.array(masks, dtype=np.int64)
    dtypes, _, rows = term_chunks(dist, masks, True)
    assert dtypes == {np.dtype(dtype)}
    assert rows.T.tolist() == expected


@pytest.mark.parametrize("per_chunk", [1, 3, "cap"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
def test_chunk_boundaries_change_no_term(monkeypatch, per_chunk, dtype):
    """Chunks of 1 mask, 3 masks and exactly the mask cap give the terms of
    the plain formula, in both dtypes: ``term_table`` over all 2^13 masks of
    a uint8 graph, both variants, and ``term_sums_for_masks`` over the cap
    plus 5 random masks of the 24-node path, whose SUM terms need int16."""
    cap = _engine._BATCH_MASKS
    if dtype is np.uint8:
        g = random_connected_graph(random.Random(13), 13)
        masks = np.arange(1 << 13, dtype=np.int64)
        variants = (SUM, MAX)
    else:
        g = path_graph(24)
        rnd = np.random.default_rng(24)
        masks = rnd.integers(0, 1 << 24, cap + 5, dtype=np.int64)
        variants = (SUM,)
    dist = all_pairs_distances(g).dist
    width = cap if per_chunk == "cap" else per_chunk
    # For the cap, a byte budget of twice the cap: the cap must bind.
    budget = (2 * cap if per_chunk == "cap" else per_chunk) * np.dtype(dtype).itemsize * g.n**2
    monkeypatch.setattr(_engine, "_BATCH_BYTES", budget)
    for variant in variants:
        maximum = variant is MAX
        expected = plain_terms(dist, masks, maximum)
        dtypes, widths, rows = term_chunks(dist, masks, maximum)
        assert dtypes == {np.dtype(dtype)}
        assert set(widths[:-1]) <= {width} and 0 < widths[-1] <= width
        assert rows.tolist() == expected.tolist()
        sums = sums_for_masks(dist, masks, maximum)
        assert sums.tolist() == expected.sum(axis=0).tolist()
        if dtype is np.uint8:
            assert _engine.term_table(dist, maximum=maximum).tolist() == expected.tolist()
        for p in (0, 1, len(masks) - 1):
            assert expected[:, p].tolist() == hub_terms(g, variant, int(masks[p]))


def test_no_chunk_exceeds_the_mask_cap():
    """Every chunk holds at most 4096 masks, the most before numpy's broadcast
    minimum slows about sixfold; below the cap the byte budget decides.  A
    sparse chunk takes all of that width, with one row per node alone and two
    per larger twin class; a dense one takes the largest power of two within
    it, and at most all ``2^n`` masks."""
    cap = _engine._BATCH_MASKS
    assert cap == 4096
    for n in range(2, 21):
        g = random_connected_graph(random.Random(n), n)
        dist = all_pairs_distances(g).dist
        masks = np.arange(3 * cap + 1, dtype=np.int64) & ((1 << n) - 1)
        width = min(cap, _engine._BATCH_BYTES // (n * n))
        dense = 2 ** min(n, math.floor(math.log2(width)))
        classes = twin_classes(g)
        rows = sum(min(2, len(c)) for c in classes)
        for maximum in (False, True):
            dtypes, widths, _ = term_chunks(dist, masks, maximum)
            assert dtypes == {np.dtype(np.uint8)}
            assert max(widths) == width
            assert sum(widths) == masks.size
            layout = _engine._SearchLayout(dist, classes, maximum)
            shapes = {(terms.shape, weights.shape) for _, terms, weights in
                      _engine._twin_rows(layout, masks)}
            assert shapes == {((rows, w), (rows, w)) for w in widths}
            chunks = [(cols, terms.shape) for cols, terms in _engine._dense_term_rows(dist, maximum)]
            assert chunks == [(slice(s, s + dense), (n, dense)) for s in range(0, 1 << n, dense)]


@pytest.mark.parametrize("per_chunk", [1, 2, 8])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
def test_dense_terms_match_plain_formula_and_sparse_path(monkeypatch, per_chunk, dtype):
    """``term_table`` and ``term_sums`` on every mask of graphs up to n = 14,
    both variants, in chunks of 1, 2 and 8 masks, so that the high-bit table
    has up to 2^14 columns: against ``plain_terms`` and against
    ``term_sums_for_masks`` over the same masks.  At n <= 14 a SUM row sums to
    at most 91 and ``2n`` is 28, so uint8 always applies and int16 is forced."""
    if dtype is np.int16:
        monkeypatch.setattr(_engine, "_narrow", lambda dist, maximum: dist.astype(np.int16))
    for n in (1, 2, 3, 6, 10, 14):
        dist = all_pairs_distances(random_connected_graph(random.Random(n), n)).dist
        masks = np.arange(1 << n, dtype=np.int64)
        monkeypatch.setattr(_engine, "_BATCH_BYTES", per_chunk * np.dtype(dtype).itemsize * n * n)
        for maximum in (False, True):
            expected = plain_terms(dist, masks, maximum)
            chunks = list(_engine._dense_term_rows(dist, maximum))
            assert {terms.shape for _, terms in chunks} == {(n, min(per_chunk, 1 << n))}
            assert {terms.dtype for _, terms in chunks} == {np.dtype(dtype)}
            assert _engine.term_table(dist, maximum=maximum).tolist() == expected.tolist()
            sums = _engine.term_sums(dist, maximum=maximum).tolist()
            assert sums == expected.sum(axis=0).tolist()
            assert sums == sums_for_masks(dist, masks, maximum).tolist()


def test_cost_queries_run_no_bfs(monkeypatch):
    g = random_connected_graph(random.Random(3), 40)
    d = all_pairs_distances(g)
    builds = count_calls(monkeypatch, "_bitset_distances")
    bfs = count_calls(monkeypatch, "_bfs_tree")
    s = StrategyProfile.of(range(0, 40, 3))
    for variant in (SUM, MAX):
        cfg = GameConfig(variant, Fraction(7, 2))
        improving_moves(d, cfg, s)
        is_nash_equilibrium(d, cfg, s)
        social_cost(d, cfg, s)
    assert g.edge_count() > g.n - 1  # not a tree, so the girth is read off d
    metrics(d)
    assert builds == bfs == []


@given(graph_profile_pairs(max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=60, deadline=None)
def test_equilibrium_iff_no_improving_moves(pair, alpha, variant):
    g, s = pair
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    moves = improving_moves(d, cfg, s)
    assert [m.node for m in moves] == sorted(m.node for m in moves)
    assert is_nash_equilibrium(d, cfg, s) == (not moves)
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
    assert is_nash_equilibrium(d, GameConfig(SUM, alpha), full) == (alpha <= g.n - 1)
    assert is_nash_equilibrium(d, GameConfig(MAX, alpha), full) == (alpha <= 1)


def test_frac_str_always_has_denominator():
    assert frac_str(Fraction(15)) == "15/1"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert frac_str(3) == "3/1"


@given(st.fractions(min_value=0, max_value=Fraction(10**9)))
@settings(max_examples=200, deadline=None)
def test_sqrt_helpers(x):
    f = floor_sqrt(x)
    assert Fraction(f * f) <= x < Fraction((f + 1) * (f + 1))

