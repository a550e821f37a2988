import hashlib
import json
import os
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    ElementUncovered,
    GameConfig,
    GirthTooSmall,
    IrCycleParams,
    ParameterOutOfRange,
    SetCoverInstance,
    Variant,
    all_pairs_distances,
    brute_force_optimum,
    construct_max_ne,
    gen_ir_cycle,
    gen_max_line,
    gen_max_poa_star,
    gen_non_wag,
    gen_sum_poa_star,
    graph_to_json,
    is_nash_equilibrium,
    metrics,
    min_cover_size,
    parse_set_cover,
    reduce_set_cover,
)

from conftest import deep_tree, tree_from_prufer

INSTANCE_A = "6 3\n0 1\n2 3\n4 5\n"
INSTANCE_B = "6 3\n0 1 2\n3 4 5\n0 3\n"


def test_ir_cycle_layout():
    game = gen_ir_cycle(IrCycleParams(10, 1, 2, Fraction(5)))
    g, roles, initial = game.graph, game.roles, game.initial
    assert g.n == 10
    assert roles["u"] == 0 and roles["v"] == 1 and roles["w"] == 2
    assert roles["w_pendants"] == (3, 4)
    assert roles["u_pendants"] == (5, 6, 7, 8, 9)
    assert initial.ids == (2,)
    assert set(g.adj[2]) == {1, 3, 4}
    assert set(g.adj[0]) == {1, 5, 6, 7, 8, 9}


def test_ir_cycle_rejects_bad_price():
    with pytest.raises(ParameterOutOfRange, match="alpha must satisfy"):
        gen_ir_cycle(IrCycleParams(10, 1, 7, Fraction(5)))
    with pytest.raises(ParameterOutOfRange, match="pendant nodes at u"):
        gen_ir_cycle(IrCycleParams(6, 2, 4, Fraction(5)))


def test_ir_cycle_wide_window():
    game = gen_ir_cycle(IrCycleParams(32, 8, 5, Fraction(140)))
    assert game.graph.n == 32
    assert game.roles["v"] == 8 and game.roles["w"] == 16
    for alpha in (127, 160):
        with pytest.raises(ParameterOutOfRange, match="alpha must satisfy"):
            gen_ir_cycle(IrCycleParams(32, 8, 5, Fraction(alpha)))
    with pytest.raises(ParameterOutOfRange, match="r must satisfy"):
        gen_ir_cycle(IrCycleParams(32, 8, 6, Fraction(140)))


def test_non_wag_shape():
    game = gen_non_wag()
    g, roles, initial = game.graph, game.roles, game.initial
    assert g.n == 11
    assert g.edge_count() == 26
    assert roles["x"] == (3, 4, 5, 6)
    assert roles["y"] == (7, 8, 9)
    assert roles["c"] == 10
    assert initial.ids == (roles["w"],)


def test_non_wag_price_is_pinned():
    with pytest.raises(ParameterOutOfRange, match="certified"):
        gen_non_wag(8)
    # The cliques scale as ceil(alpha/2) and floor(alpha/2), so alpha = 8
    # yields one more node than the certified gadget.
    game = gen_non_wag(8, experimental=True)
    assert game.graph.n == 12
    assert len(game.roles["x"]) == 4 and len(game.roles["y"]) == 4
    with pytest.raises(ParameterOutOfRange):
        gen_non_wag(1, experimental=True)


def test_sum_poa_star_shape():
    game = gen_sum_poa_star(13, 9)
    g, roles, initial = game.graph, game.roles, game.initial
    assert g.n == 13
    assert roles["center"] == 0
    assert roles["path_leaves"] == (2, 4, 6, 8, 10, 12)
    assert roles["gateway"] == 2
    assert initial.ids == (2,)
    with pytest.raises(ParameterOutOfRange):
        gen_sum_poa_star(13, 3)
    with pytest.raises(ParameterOutOfRange):
        gen_sum_poa_star(13, 13)


def test_max_line_shape():
    game = gen_max_line(Fraction(5, 2))
    g, roles, initial = game.graph, game.roles, game.initial
    assert g.n == 10
    assert (roles["u"], roles["v"], roles["w"]) == (0, 3, 6)
    assert initial.ids == (0,)
    assert g.edge_count() == g.n - 1
    with pytest.raises(ParameterOutOfRange):
        gen_max_line(1)


def test_max_poa_star_shape():
    game = gen_max_poa_star(10)
    g, roles, initial = game.graph, game.roles, game.initial
    assert g.n == 10
    assert roles["path_leaves"] == (3, 6, 9)
    assert roles["gateway"] == 9
    assert initial.ids == (9,)
    with pytest.raises(ParameterOutOfRange):
        gen_max_poa_star(6)


def test_max_ne_path(p4):
    prof = construct_max_ne(p4, Fraction(7, 4))
    assert prof.ids == (0, 3)
    d = all_pairs_distances(p4)
    assert is_nash_equilibrium(d, GameConfig(Variant.MAX, Fraction(7, 4)), prof)


def test_max_ne_on_a_deep_tree_is_pinned():
    """Recorded when the spaced profile's gap fill ran one multi-source BFS
    per added gateway; on this tree its fill decides the profile."""
    prof = construct_max_ne(deep_tree(random.Random(2), 70), Fraction(5, 2))
    assert prof.ids == (
        1, 5, 6, 9, 11, 16, 19, 21, 22, 27, 32, 33, 35, 38, 41, 43, 47, 53, 55, 56, 59, 62, 65, 67
    )


def test_max_ne_rejects_bad_inputs(p4, c4):
    with pytest.raises(ParameterOutOfRange):
        construct_max_ne(p4, Fraction(1, 2))
    with pytest.raises(ParameterOutOfRange):
        construct_max_ne(p4, 3)
    with pytest.raises(GirthTooSmall):
        construct_max_ne(c4, Fraction(3, 2))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_max_ne_on_random_trees(seed):
    rnd = random.Random(seed)
    n = rnd.randrange(4, 24)
    seq = [rnd.randrange(n) for _ in range(n - 2)]
    g = tree_from_prufer(seq, n)
    diameter = metrics(all_pairs_distances(g)).diameter
    alpha = 1 + Fraction(rnd.randrange(4 * (diameter - 1)), 4)
    prof = construct_max_ne(g, alpha)
    d = all_pairs_distances(g)
    assert is_nash_equilibrium(d, GameConfig(Variant.MAX, alpha), prof)


def test_parse_set_cover_round_trip():
    inst = parse_set_cover(INSTANCE_B)
    assert inst.m == 6
    assert inst.n_sets == 3
    assert inst.sets == (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 3}))


def test_parse_set_cover_errors():
    with pytest.raises(ValueError, match="header"):
        parse_set_cover("6\n0 1\n")
    with pytest.raises(ValueError, match="set lines"):
        parse_set_cover("6 3\n0 1\n2 3\n")
    with pytest.raises(ValueError, match="outside"):
        parse_set_cover("2 1\n0 5\n")
    with pytest.raises(ValueError, match="empty"):
        parse_set_cover("\n\n")


def test_min_cover_size():
    assert min_cover_size(parse_set_cover(INSTANCE_A)) == 3
    assert min_cover_size(parse_set_cover(INSTANCE_B)) == 2
    with pytest.raises(ElementUncovered, match=r"2 of the 3 elements .* first \[1, 2\]"):
        min_cover_size(SetCoverInstance(3, (frozenset({0}),)))


def test_max_reduction_layout():
    art = reduce_set_cover(parse_set_cover(INSTANCE_A), Variant.MAX)
    g = art.graph
    assert g.n == 18
    assert g.edge_count() == 45
    assert art.roles["c"] == 0
    assert art.roles["clique"] == tuple(range(9))
    assert art.roles["set_nodes"] == (9, 10, 11)
    assert art.roles["element_nodes"] == tuple((12 + i,) for i in range(6))
    assert art.alpha == 3
    assert art.params["padded_m"] == 6


def test_max_reduction_pads_elements():
    inst = parse_set_cover("4 3\n0 1\n2 3\n0 2\n")
    art = reduce_set_cover(inst, Variant.MAX)
    assert art.params["padded_m"] == 6
    # element 4 mirrors element 0, element 5 mirrors element 1
    nodes = art.roles["element_nodes"]
    g = art.graph
    assert set(g.adj[nodes[4][0]]) == set(g.adj[nodes[0][0]])
    assert set(g.adj[nodes[5][0]]) == set(g.adj[nodes[1][0]])


def test_max_reduction_rejects_wide_instances():
    inst = SetCoverInstance(7, (frozenset(range(7)), frozenset({0}), frozenset({1})))
    with pytest.raises(ParameterOutOfRange, match="m <= 2"):
        reduce_set_cover(inst, Variant.MAX)


def test_max_reduction_optimum_tracks_cover_size():
    cfg_by = {}
    for text in (INSTANCE_A, INSTANCE_B):
        art = reduce_set_cover(parse_set_cover(text), Variant.MAX)
        res = brute_force_optimum(art.graph, GameConfig(Variant.MAX, art.alpha), exhaustive_limit=0)
        cfg_by[text] = res
    a, b = cfg_by[INSTANCE_A], cfg_by[INSTANCE_B]
    assert a.best_profile.ids == (0, 9, 10, 11)
    assert a.best_cost == 44
    assert b.best_profile.ids == (0, 9, 10)
    assert b.best_cost == 42
    assert b.best_cost < a.best_cost


def test_sum_reduction_layout_and_optimum():
    text = "5 5\n0 1 2\n3 4\n0 3\n1 4\n2\n"
    inst = parse_set_cover(text)
    art = reduce_set_cover(inst, Variant.SUM)
    g = art.graph
    assert g.n == 34
    assert art.alpha == 80
    assert art.roles["c"] == 0
    assert art.roles["clique"] == (0, 1, 2, 3)
    assert art.roles["set_nodes"] == (4, 5, 6, 7, 8)
    assert art.roles["element_nodes"][0] == (9, 10, 11, 12, 13)
    res = brute_force_optimum(g, GameConfig(Variant.SUM, art.alpha), exhaustive_limit=0)
    assert res.best_profile.ids == (0, 4, 5)
    assert res.best_cost == 2230
    assert min_cover_size(inst) == 2


def test_sum_reduction_warns_when_small():
    with pytest.warns(UserWarning, match="separation"):
        reduce_set_cover(parse_set_cover(INSTANCE_A), Variant.SUM)


def test_reduction_size_check_counts_the_edges_it_builds(monkeypatch):
    """The refusal counts a reduction's edges before listing any.  On random
    instances, padded MAX ones included, that count equals the built graph's,
    and physical memory of exactly 512 bytes per edge admits the instance
    while one byte less refuses it."""
    rnd = random.Random(14)
    for _ in range(30):
        m = rnd.randint(2, 12)
        n_sets = rnd.randint(-(-m // 2), 8)
        sets = [set(rnd.sample(range(m), rnd.randint(0, m))) for _ in range(n_sets)]
        for e in range(m):
            sets[rnd.randrange(n_sets)].add(e)
        inst = SetCoverInstance(m, tuple(map(frozenset, sets)))
        for variant in (Variant.SUM, Variant.MAX):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                edges = reduce_set_cover(inst, variant).graph.edge_count()
                with monkeypatch.context() as mp:
                    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 512 * edges - 1}
                    mp.setattr(os, "sysconf", memory.__getitem__)
                    with pytest.raises(ParameterOutOfRange, match=rf"builds {edges} edges,"):
                        reduce_set_cover(inst, variant)
                    memory["SC_PHYS_PAGES"] += 1
                    reduce_set_cover(inst, variant)


def build_case(label):
    """The graph and roles a digest row names: ``family args...`` or
    ``reduce variant m n_sets`` over ``DIGEST_COVERS``."""
    family, *args = label.split()
    if family == "reduce":
        variant, m, n_sets = args
        cover = next(c for c in DIGEST_COVERS if c.startswith(f"{m} {n_sets}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            art = reduce_set_cover(parse_set_cover(cover), Variant(variant))
        return art.graph, art.roles
    if family == "ir-cycle":
        n, c, r, alpha = map(int, args)
        game = gen_ir_cycle(IrCycleParams(n, c, r, Fraction(alpha)))
    elif family == "non-wag":
        game = gen_non_wag(Fraction(args[0]), experimental=True)
    elif family == "sum-poa-star":
        game = gen_sum_poa_star(int(args[0]), Fraction(args[1]))
    elif family == "max-line":
        game = gen_max_line(Fraction(args[0]))
    else:
        game = gen_max_poa_star(int(args[0]))
    return game.graph, game.roles


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


DIGEST_COVERS = (
    "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "6 4\n0 1 2\n2 3\n3 4 5\n0 5\n",
    "7 5\n0 1 2 3\n4 5 6\n0 4\n1 5\n2 6\n",
    "3 6\n0\n1\n2\n0 1\n1 2\n\n",
)
# sha256 prefixes of graph_to_json and of the roles as sorted-key JSON, recorded
# before the families and both reductions shared their builders.
DIGESTS = [
    ("ir-cycle 10 1 2 5", "166d326bb2fa1d97", "38ce280bd553184d"),
    ("ir-cycle 12 1 3 6", "7da9326931d09879", "bd9c32ffded88fe0"),
    ("ir-cycle 20 5 4 60", "7714ada75409cb04", "b125a632e13502b9"),
    ("ir-cycle 24 6 4 84", "a69adad27a086069", "bae6243481a49509"),
    ("non-wag 7", "d05c8ae916bbd188", "e0cd73b7c91bb7ad"),
    ("non-wag 12", "584b9c1e09cdfd6b", "030864dcbe104153"),
    ("non-wag 25/2", "b05742f3260a960b", "3e8c8415c7f1476e"),
    ("sum-poa-star 7 4", "b0a0699be02f11ca", "b603f4670854de15"),
    ("sum-poa-star 16 9", "736404f98e848bb7", "57d1f0ce87090e40"),
    ("sum-poa-star 30 16", "4851af9f5f622bf1", "b93e0a51f0cebdf1"),
    ("sum-poa-star 59 20", "c30a1506e8523444", "f98a8d59da0dd9c3"),
    ("sum-poa-star 40 37/2", "3fde97a1c36b96ba", "dd414f23723e02a7"),
    ("max-line 2", "773c62edeba1f923", "dcfbf02f6155bcb3"),
    ("max-line 7/2", "321ffbaf2410b821", "d9965dcf79464fc3"),
    ("max-line 10", "f5fb796e56468a47", "70bf70756804d9d2"),
    ("max-poa-star 7", "9973eda917b9913f", "27d64f18e972c137"),
    ("max-poa-star 8", "36084aa1c3ff34b3", "f231d100289b2b79"),
    ("max-poa-star 9", "867065cc796e9fa3", "f33ece7680b15e2e"),
    ("max-poa-star 30", "06364d65b0f45e4b", "65ea6f22194bf6b1"),
    ("max-poa-star 59", "51605dbf9a4f585b", "64f63cf66b2d7dfa"),
    ("reduce sum 5 5", "5bff855bc3d3d92f", "f7fa039a41c95b7b"),
    ("reduce max 5 5", "2da6dcee5b648c96", "4bc70ad9b5eca22c"),
    ("reduce sum 6 4", "480c803d852c6aa5", "ab713006f5eec0ac"),
    ("reduce max 6 4", "eac9cf5fafd5c0ed", "e917c3d11c7820d8"),
    ("reduce sum 7 5", "89730ac91efc4560", "abfd3eda4ee2e10a"),
    ("reduce max 7 5", "d1e162e17da9afb8", "4bc70ad9b5eca22c"),
    ("reduce sum 3 6", "54e1dd5d0a2c7e89", "caca192d17f0fa2b"),
    ("reduce max 3 6", "cfef642f8562cfc6", "135dfbdb70fdfb83"),
]


@pytest.mark.parametrize("label, graph_digest, roles_digest", DIGESTS)
def test_generated_graphs_and_roles_match_recorded_digests(label, graph_digest, roles_digest):
    g, roles = build_case(label)
    assert digest(graph_to_json(g)) == graph_digest
    assert digest(json.dumps(roles, sort_keys=True)) == roles_digest


GEN_CASES = [
    lambda: gen_ir_cycle(IrCycleParams(20, 5, 4, Fraction(60))),
    lambda: gen_non_wag(7),
    lambda: gen_non_wag(Fraction(25, 2), experimental=True),
    lambda: gen_sum_poa_star(59, 20),
    lambda: gen_max_line(Fraction(7, 2)),
    lambda: gen_max_poa_star(30),
]


@pytest.mark.parametrize("case", range(len(GEN_CASES)))
def test_gen_size_check_counts_the_edges_it_builds(monkeypatch, case):
    """Each family counts its edges from its parameters before listing any:
    physical memory of exactly 552 bytes per built edge admits the family,
    and one byte less refuses it."""
    edges = GEN_CASES[case]().graph.edge_count()
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 552 * edges - 1}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    with pytest.raises(ParameterOutOfRange, match=rf"builds {edges} edges, .*physical memory"):
        GEN_CASES[case]()
    memory["SC_PHYS_PAGES"] += 1
    GEN_CASES[case]()
