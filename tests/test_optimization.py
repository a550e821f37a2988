import itertools
import json
import os
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import (
    BoundedCardinality,
    FullEnumeration,
    GameConfig,
    StateSpaceTooLarge,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    brute_force_optimum,
    build_graph,
    enumerate_equilibria,
    gen_sum_poa_star,
    graph_to_json,
    greedy_gateways,
    is_nash_equilibrium,
    min_cover_size,
    parse_set_cover,
    poa_regime,
    reduce_set_cover,
    social_cost,
    twin_classes,
)

from gateway_games import _engine, optimization
from gateway_games.optimization import (
    _canonical_masks,
    _full_optimum,
    _least_ids,
    _level_floors,
)

from conftest import (
    KNIFE,
    alphas,
    connected_graphs,
    count_calls,
    graph_profile_pairs,
    hub_distances,
    path_graph,
    random_connected_graph,
    run_cli,
    twin_graphs,
)

SUM = Variant.SUM
MAX = Variant.MAX


def test_optimum_path_small_alpha(p5):
    res = brute_force_optimum(p5, GameConfig(SUM, Fraction(3)))
    assert res.best_profile.ids == (0, 1, 2, 3, 4)
    assert res.best_cost == 15
    assert res.method == FullEnumeration()
    assert res.certified_exact


def test_optimum_star_tie_breaks_to_smallest_singleton(star5):
    res = brute_force_optimum(star5, GameConfig(SUM, Fraction(10)))
    assert res.best_profile.ids == (0,)
    assert res.best_cost == 42


def test_bounded_mode_reports_its_bound(p5):
    res = brute_force_optimum(p5, GameConfig(SUM, Fraction(3)), exhaustive_limit=0)
    assert isinstance(res.method, BoundedCardinality)
    assert res.best_profile.ids == (0, 1, 2, 3, 4)
    assert res.best_cost == 15


KNIFE_PRICES = st.one_of(
    st.sampled_from([Fraction(2**70 + 1, 3), KNIFE / 16]),
    st.builds(
        Fraction.__add__, st.integers(1, 80).map(Fraction), st.sampled_from([-KNIFE, 0, KNIFE])
    ),
)


@given(
    connected_graphs(min_n=2, max_n=9),
    st.one_of(alphas(), KNIFE_PRICES),
    st.sampled_from([SUM, MAX]),
)
@settings(max_examples=80, deadline=None)
def test_bounded_equals_full(g, alpha, variant):
    """Full, bounded and the catalog's optimum agree on cost and witness with
    the canonical minimum over every profile, knife-edge prices included."""
    assert_every_optimum_is_the_canonical_minimum(g, GameConfig(variant, alpha))


@given(
    twin_graphs(max_n=10),
    st.one_of(alphas(), KNIFE_PRICES),
    st.sampled_from([SUM, MAX]),
)
@settings(max_examples=40, deadline=None)
def test_bounded_equals_full_on_planted_twins(planted, alpha, variant):
    """As above on graphs with large twin classes, where the bounded search
    costs one or two rows per class."""
    assert_every_optimum_is_the_canonical_minimum(planted[0], GameConfig(variant, alpha))


def assert_every_optimum_is_the_canonical_minimum(g, cfg):
    d = all_pairs_distances(g)
    profiles = [StrategyProfile.from_mask(m) for m in range(1, 1 << g.n)]
    costs = {s: social_cost(d, cfg, s) for s in profiles}
    best = min(profiles, key=lambda s: (costs[s], len(s), s.ids))
    for res in (
        brute_force_optimum(g, cfg, exhaustive_limit=g.n),
        brute_force_optimum(g, cfg, exhaustive_limit=0),
        enumerate_equilibria(g, cfg).optimum,
    ):
        assert res.best_cost == costs[best]
        assert res.best_profile == best


def star(n):
    return build_graph(n, [(0, v) for v in range(1, n)])


@pytest.mark.parametrize("flags", [("--bounded",), ()])
def test_bounded_search_refuses_64_nodes(tmp_path, flags):
    path = tmp_path / "star64.json"
    path.write_text(graph_to_json(star(64)))
    proc = run_cli("optimum", "--graph", path, "--alpha", 3, *flags)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: bounded search needs n <= 63, got n = 64"]


def _written_graph(tmp_path, g):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g))
    return path


def test_bounded_search_answers_40_nodes_when_the_floors_prune_the_levels(tmp_path):
    """Below alpha = n - 1 every SUM level under n costs more than all open,
    so only the one profile of level n is left to visit."""
    path = _written_graph(tmp_path, random_connected_graph(random.Random(40), 40))
    proc = run_cli("optimum", "--graph", path, "--alpha", "7/2", "--bounded")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["profile"] == list(range(40))
    assert (result["cost"], result["bound"]) == ("140/1", 40)


def test_bounded_search_refuses_40_node_max_once(tmp_path):
    path = _written_graph(tmp_path, random_connected_graph(random.Random(40), 40))
    proc = run_cli("optimum", "--graph", path, "--alpha", "7/2", "--variant", "max", "--bounded")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: bounded search would visit ")
    assert errors[0].endswith(f"canonical profiles (cap {1 << 25})")


def test_bounded_search_refuses_beyond_physical_memory(monkeypatch):
    """Every admitted level's masks are held at once, so the search is refused
    up front when 20 bytes per canonical profile and 2 MiB beside them exceed
    physical memory: the 14-node path at alpha 30 leaves 6475 on its levels."""
    g, cfg = path_graph(14), GameConfig(SUM, Fraction(30))
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 20 * 6475 + (2 << 20)}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    assert brute_force_optimum(g, cfg, exhaustive_limit=0).best_profile.ids == (0, 3, 6, 9, 12)
    memory["SC_PHYS_PAGES"] -= 1
    claim = "bounded search over 6475 canonical profiles needs about 2226652 bytes"
    with pytest.raises(StateSpaceTooLarge, match=claim):
        brute_force_optimum(g, cfg, exhaustive_limit=0)


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=30, deadline=None)
def test_level_floor_bounds_every_profile_of_its_size(g):
    """Against the least distance part over each size, from the hub oracle."""
    d = all_pairs_distances(g)
    lowest = {}
    for m in range(1, 1 << g.n):
        rows = hub_distances(g, StrategyProfile.from_mask(m).gateways)
        for maximum, part in ((False, sum(map(sum, rows))), (True, sum(map(max, rows)))):
            key = (m.bit_count(), maximum)
            lowest[key] = min(lowest.get(key, part), part)
    assert len(lowest) == 2 * g.n
    floors = {maximum: _level_floors(d.dist, g.n, maximum) for maximum in (False, True)}
    for (k, maximum), low in lowest.items():
        assert floors[maximum][k] <= low


def test_max_level_floor_is_tight_on_the_six_cycle():
    """Every node is two or more hops from three others, so two gateways
    leave four closed nodes paying 2 and the opposite pair attains it; three
    gateways leave three, and alternate nodes attain it."""
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    d = all_pairs_distances(g)
    floors = _level_floors(d.dist, 3, True)
    rows = hub_distances(g, frozenset({0, 3}))
    assert floors[2] == sum(map(max, rows)) == 6 + (6 - 2)
    rows = hub_distances(g, frozenset({0, 2, 4}))
    assert floors[3] == sum(map(max, rows)) == 6 + (6 - 3)


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=40, deadline=None)
def test_level_floor_relaxes_the_profile_floor(g):
    """The level floor's terms that come from the per-profile floors are at
    most the least of them on their level, at each k = 1..n-1 over the
    canonical masks of the graph's twin classes.  MAX: the whole floor.
    SUM: ``(n - k)`` plus the ``n - k`` least row sums of ``min(d, 2)``,
    which the floor must reach; its pair-count terms need not relax them
    (two gateways at the ends of a 3-node path part 4 apart, floored at 3)."""
    n = g.n
    d = all_pairs_distances(g)
    classes = twin_classes(g)
    groups = _canonical_masks(classes, list(range(1, n)))
    near = sorted(sum(min(x, 2) for x in row) for row in d.dist.tolist())
    for maximum in (False, True):
        floors = _level_floors(d.dist, n - 1, maximum)
        layout = _engine._SearchLayout(d.dist, classes, maximum)
        for k in range(1, n):
            lows = [low for _, low in _engine.term_floors(layout, groups[k], k)]
            least = int(np.concatenate(lows).min())
            if maximum:
                assert floors[k] <= least, k
            else:
                relaxed = n - k + sum(near[: n - k])
                assert relaxed <= min(floors[k], least), k


@pytest.mark.parametrize("seed", range(12))
def test_cheapest_breaks_ties_by_smallest_id_tuple(seed):
    """Few distinct sums over many masks of each size: ties everywhere.  The
    dense optimum over every mask of 12 nodes, and one bounded level of
    4-gateway masks in random order with ids up to 62, as the bounded search
    allows, both keep the smallest id tuple."""
    rng = np.random.default_rng(seed)
    sums = rng.integers(0, 3, size=1 << 12).astype(np.int64)
    alpha = Fraction(int(rng.integers(1, 5)), 2) + KNIFE * (seed % 3 - 1)
    counts = [m.bit_count() for m in range(1 << 12)]
    lows = {c: int(sums[[m for m in range(1 << 12) if counts[m] == c]].min()) for c in range(1, 13)}
    k = min(lows, key=lambda c: (alpha * c + lows[c], c))
    at_best = [m for m in range(1 << 12) if counts[m] == k and sums[m] == lows[k]]
    result = _full_optimum(sums, alpha)
    assert result.best_profile.ids == min(StrategyProfile.from_mask(m).ids for m in at_best)
    assert result.best_cost == alpha * k + lows[k]

    ids = [*range(11), 62]
    level = [sum(1 << v for v in c) for c in itertools.combinations(ids, 4)]
    masks = rng.permutation(np.array(level, dtype=np.int64))[:300]
    level_sums = rng.integers(0, 3, size=len(masks))
    at_low = masks[level_sums == level_sums.min()]
    ids_of = [StrategyProfile.from_mask(m).ids for m in at_low.tolist()]
    assert StrategyProfile.from_mask(_least_ids(at_low)).ids == min(ids_of)


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(500)])
def test_bounded_search_solves_63_node_star(alpha):
    """A star's optimum is the centre or not, plus some number of leaves."""
    g = star(63)
    d = all_pairs_distances(g)
    cfg = GameConfig(SUM, alpha)
    candidates = [StrategyProfile.of(range(1, k + 1)) for k in range(1, 63)]
    candidates += [StrategyProfile.of(range(k + 1)) for k in range(63)]
    result = brute_force_optimum(g, cfg, exhaustive_limit=0)
    assert result.best_cost == min(social_cost(d, cfg, s) for s in candidates)
    assert social_cost(d, cfg, result.best_profile) == result.best_cost


def test_optimum_ties_across_gateway_counts_go_to_fewer_gateways(p3):
    """On P3 at alpha = 4, each singleton, {0, 2} and all three nodes cost 12:
    the fewest gateways win.  A hair below 4, all three nodes win."""
    d = all_pairs_distances(p3)
    for alpha, ids in ((4 - KNIFE, (0, 1, 2)), (Fraction(4), (0,)), (4 + KNIFE, (0,))):
        cfg = GameConfig(SUM, alpha)
        lowest = min(social_cost(d, cfg, StrategyProfile.from_mask(m)) for m in range(1, 8))
        for res in (
            brute_force_optimum(p3, cfg, exhaustive_limit=p3.n),
            brute_force_optimum(p3, cfg, exhaustive_limit=0),
            enumerate_equilibria(p3, cfg).optimum,
        ):
            assert (res.best_profile.ids, res.best_cost) == (ids, lowest)


@given(connected_graphs(min_n=2, max_n=9), st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_sum_optimum_small_alpha_is_everyone(g, num):
    """For alpha <= n-1 the all-gateways profile is the unique optimum."""
    alpha = Fraction(num * (g.n - 1), 64)
    cfg = GameConfig(SUM, alpha)
    res = brute_force_optimum(g, cfg)
    assert res.best_cost == g.n * alpha
    assert res.best_profile.ids == tuple(range(g.n))


def test_greedy_star(star5):
    prof = greedy_gateways(all_pairs_distances(star5), GameConfig(SUM, Fraction(10)))
    assert prof.ids == (0,)


def test_greedy_path_huge_alpha(p5):
    prof = greedy_gateways(all_pairs_distances(p5), GameConfig(SUM, Fraction(100)))
    assert prof.ids == (0,)


@given(connected_graphs(min_n=2, max_n=8), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=40, deadline=None)
def test_greedy_never_beats_optimum(g, alpha, variant):
    cfg = GameConfig(variant, alpha)
    d = all_pairs_distances(g)
    prof = greedy_gateways(d, cfg)
    assert social_cost(d, cfg, prof) >= brute_force_optimum(g, cfg).best_cost


def scalar_greedy(d, cfg):
    """The one-profile-at-a-time loop greedy_gateways batches."""
    current = StrategyProfile.of([0])
    cost = social_cost(d, cfg, current)
    while len(current) < d.graph.n:
        best_v, best_cost = -1, cost
        for v in range(d.graph.n):
            if v not in current:
                trial = social_cost(d, cfg, current.toggled(v))
                if trial < best_cost:
                    best_v, best_cost = v, trial
        if best_v < 0:
            break
        current = current.toggled(best_v)
        cost = best_cost
    return current


@given(
    connected_graphs(min_n=2, max_n=30),
    st.one_of(alphas(), st.integers(1, 60).map(Fraction)),
    st.sampled_from([SUM, MAX]),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_greedy_matches_the_scalar_loop(g, alpha, variant, per_batch):
    """Integer prices make drops that equal alpha, which must not be taken;
    a few candidates per batch exercise the batch boundaries."""
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    expected = scalar_greedy(d, cfg)
    assert greedy_gateways(d, cfg) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_BATCH_BYTES", per_batch * 8 * g.n * g.n)
        assert greedy_gateways(d, cfg) == expected


@given(
    connected_graphs(min_n=2, max_n=30),
    st.one_of(alphas(), KNIFE_PRICES),
    st.sampled_from([SUM, MAX]),
)
@settings(max_examples=60, deadline=None)
def test_greedy_beats_node_zero_alone_unless_it_stays_there(g, alpha, variant):
    """Greedy starts at {0} and opens a node only at a strict drop in cost, so
    it costs strictly less than {0} unless it returns {0}, knife-edge prices
    included: the bounded search needs no {0} seed beside it."""
    d = all_pairs_distances(g)
    cfg = GameConfig(variant, alpha)
    greedy, start = greedy_gateways(d, cfg), StrategyProfile.of([0])
    assert greedy == start or social_cost(d, cfg, greedy) < social_cost(d, cfg, start)


def test_twin_classes_shapes(star5, k4, c4, p4):
    assert twin_classes(star5) == ((0,), (1, 2, 3, 4))
    assert twin_classes(k4) == ((0, 1, 2, 3),)
    assert twin_classes(c4) == ((0, 2), (1, 3))
    assert twin_classes(p4) == ((0,), (1,), (2,), (3,))


def pairwise_twin_classes(g):
    """The reference rule: a union-find over every pair whose neighbourhoods
    agree outside the pair itself, classes sorted by smallest member."""
    neigh = [frozenset(g.adj[v]) for v in range(g.n)]
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in itertools.combinations(range(g.n), 2):
        if neigh[u] - {v} == neigh[v] - {u}:
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(members) for _, members in sorted(groups.items()))


@given(connected_graphs(min_n=1, max_n=12))
@settings(max_examples=150, deadline=None)
def test_twin_classes_match_the_pairwise_rule(g):
    assert twin_classes(g) == pairwise_twin_classes(g)


def test_twin_classes_match_the_pairwise_rule_on_the_graph_atlas():
    """Every connected graph of at most 7 nodes, then the complete graphs,
    where every pair is an adjacent twin."""
    nx = pytest.importorskip("networkx")
    graphs = [build_graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]
              if nx.is_connected(h)]
    graphs += [build_graph(n, itertools.combinations(range(n), 2)) for n in range(2, 12)]
    for g in graphs:
        assert twin_classes(g) == pairwise_twin_classes(g)


@given(graph_profile_pairs(min_n=2, max_n=8))
@settings(max_examples=60, deadline=None)
def test_swapping_twins_keeps_the_social_cost(pair):
    """Swapping two members of one class maps the graph onto itself, so the
    hub oracle gives the swapped profile the same SUM and MAX distance parts."""
    g, s = pair

    def parts(gateways):
        rows = hub_distances(g, gateways)
        return sum(map(sum, rows)), sum(map(max, rows))

    before = parts(s.gateways)
    for members in twin_classes(g):
        for u, w in itertools.combinations(members, 2):
            swap = {u: w, w: u}
            assert parts(frozenset(swap.get(v, v) for v in s.gateways)) == before


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.randoms())
@settings(max_examples=40, deadline=None)
def test_canonical_masks_are_the_prefix_sets_of_each_size(sizes, rnd):
    """Against every k-subset of the nodes, kept when each class contributes
    a prefix of its sorted members: one pass over a random set of levels
    gives, for each level, the same sets, each once, under their count, and
    no group of any other size."""
    n = sum(sizes)
    ids = rnd.sample(range(n), n)
    classes, start = [], 0
    for size in sizes:
        classes.append(tuple(sorted(ids[start : start + size])))
        start += size
    levels = sorted(rnd.sample(range(n + 1), rnd.randint(1, n + 1)))
    groups = _canonical_masks(tuple(classes), levels)
    assert set(groups) == set(levels)
    for k in levels:
        expected = set()
        for chosen in itertools.combinations(range(n), k):
            taken = [tuple(v for v in members if v in chosen) for members in classes]
            if all(members[: len(t)] == t for members, t in zip(classes, taken)):
                expected.add(sum(1 << v for v in chosen))
        assert groups[k].dtype == np.int64
        assert set(np.bitwise_count(groups[k]).tolist()) == {k}
        level = groups[k].tolist()
        assert len(set(level)) == len(level)
        assert set(level) == expected


@given(twin_graphs(), st.sampled_from([SUM, MAX]))
@settings(max_examples=60, deadline=None)
def test_twin_rows_sum_to_every_canonical_profile_cost(planted, variant):
    """One row per open and per closed part of each twin class, weighted by
    the members it stands for, gives the dense sums at every canonical mask,
    for the planted classes and for ``twin_classes``, which may merge them."""
    g, classes = planted
    maximum = variant is MAX
    dist = all_pairs_distances(g).dist
    dense = _engine.term_sums(dist, maximum=maximum)
    for partition in (classes, twin_classes(g)):
        masks = np.concatenate(list(_canonical_masks(partition, list(range(g.n + 1))).values()))
        layout = _engine._SearchLayout(dist, partition, maximum)
        sums = _engine.term_sums_for_masks(layout, masks)
        assert sums.tolist() == dense[masks].tolist()


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def covers(draw, variant):
    """A small set-cover instance whose reduction has at most 14 nodes: SUM
    with 2-4 elements and 2-3 sets, MAX with 1-2 sets and up to twice as many
    elements.  Every element is in some set and no set is empty."""
    n_sets = draw(st.integers(2, 3) if variant is SUM else st.integers(1, 2))
    m = draw(st.integers(2, 4 if n_sets == 2 else 3) if variant is SUM else st.integers(1, 2 * n_sets))
    home = draw(st.lists(st.integers(0, n_sets - 1), min_size=m, max_size=m))
    extra = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=n_sets, max_size=n_sets))
    sets = [sorted({e for e in range(m) if home[e] == i} | extra[i] | ({0} if i not in home else set()))
            for i in range(n_sets)]
    text = f"{m} {n_sets}\n" + "".join(" ".join(map(str, s)) + "\n" for s in sets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the SUM reduction warns below five sets
        return reduce_set_cover(parse_set_cover(text), variant).graph


FLOOR_GRAPHS = st.one_of(
    connected_graphs(min_n=2, max_n=12),
    twin_graphs(max_n=12).map(lambda planted: planted[0]),
    st.builds(complete_bipartite, st.integers(1, 5), st.integers(1, 6)),
    st.integers(2, 13).map(star),
    covers(SUM),
    covers(MAX),
)


@given(FLOOR_GRAPHS)
@settings(max_examples=80, deadline=None)
def test_profile_floor_never_exceeds_the_distance_part(g):
    """Every canonical profile of every gateway count, both variants: the
    floor is at most the twin-row costing's exact part, and, at n <= 10, at
    most the part the hub oracle gives."""
    d = all_pairs_distances(g)
    classes = twin_classes(g)
    groups = _canonical_masks(classes, list(range(1, g.n + 1)))
    assert sorted(groups) == list(range(1, g.n + 1))
    hub = {}
    for maximum in (False, True):
        layout = _engine._SearchLayout(d.dist, classes, maximum)
        for k, level in groups.items():
            floors = np.concatenate([low for _, low in _engine.term_floors(layout, level, k)])
            exact = _engine.term_sums_for_masks(layout, level)
            assert (floors <= exact).all(), (k, maximum)
            if g.n <= 10:
                for mask, low in zip(level.tolist(), floors.tolist()):
                    if mask not in hub:
                        rows = hub_distances(g, StrategyProfile.from_mask(mask).gateways)
                        hub[mask] = (sum(map(sum, rows)), sum(map(max, rows)))
                    assert low <= hub[mask][maximum], (mask, maximum)


TIE_GRAPHS = {
    "C5": cycle(5),
    "C6": cycle(6),
    "C8": cycle(8),
    "K2,3": complete_bipartite(2, 3),
    "K3,4": complete_bipartite(3, 4),
    "star7": star(7),
    "star9": star(9),
    "P7": path_graph(7),
    "P9": path_graph(9),
}


@pytest.mark.parametrize("variant", [SUM, MAX])
@pytest.mark.parametrize("name", TIE_GRAPHS)
def test_bounded_search_breaks_ties_like_full_enumeration(name, variant):
    """Symmetric graphs tie many profiles at each level, and integer prices
    tie levels with each other.  At every integer price up to n + 1 and at
    n(n-1)/2 and n(n-1), and a half and a knife's edge above each, the
    profiles the floors filter out never change the bounded search's cost or
    its least-ids witness."""
    g = TIE_GRAPHS[name]
    n = g.n
    for j in [*range(1, n + 2), n * (n - 1) // 2, n * (n - 1)]:
        for alpha in (Fraction(j), j + Fraction(1, 2), j + KNIFE):
            cfg = GameConfig(variant, alpha)
            full = brute_force_optimum(g, cfg, exhaustive_limit=n)
            bounded = brute_force_optimum(g, cfg, exhaustive_limit=0)
            assert (bounded.best_cost, bounded.best_profile) == (full.best_cost, full.best_profile), alpha


def twins_with_a_tail():
    """K_{4,6} with a pendant path on node 0: classes {1, 2, 3} and {4, ..., 9}."""
    k46 = [(u, v) for u in range(4) for v in range(4, 10)]
    return build_graph(14, k46 + [(0, 10), (10, 11), (11, 12), (12, 13)])


def seeded_22():
    """A seeded random 22-node graph with 29 edges that is not a reduction."""
    rnd = random.Random(22)
    edges = {(rnd.randrange(v), v) for v in range(1, 22)}
    while len(edges) < 29:
        edges.add(tuple(sorted(rnd.sample(range(22), 2))))
    return build_graph(22, sorted(edges))


@pytest.mark.parametrize(
    "make, variant, alpha, profile",
    [
        # The full sweep's 16 dense chunks against the bounded search's sparse mask lists.
        pytest.param(lambda: gen_sum_poa_star(16, 9).graph, SUM, 9, None, id="sum-star-16-9"),
        # The second twin class is partly open in both optima.
        pytest.param(twins_with_a_tail, SUM, 40, (0, 4, 12), id="twins-sum-40"),
        pytest.param(twins_with_a_tail, MAX, 5, (0, 4, 12), id="twins-max-5"),
        # The level floors admit levels 1-8 and 1-7 of the 15 and 13 the price allows.
        pytest.param(lambda: path_graph(16), SUM, 30, (0, 3, 6, 9, 12, 15), id="path-16-sum-30"),
        pytest.param(lambda: path_graph(16), SUM, 40, (0, 3, 6, 9, 12, 15), id="path-16-sum-40"),
        # The per-profile floors filter what is costed.  SUM at 11 and 7/2
        # opens every node; at 121 = n^2/4 it does not.
        *(
            pytest.param(seeded_22, variant, alpha, None, id=f"random-22-{variant.value}-{alpha}")
            for variant in (SUM, MAX)
            for alpha in ("11", "7/2", "121")
        ),
    ],
)
def test_full_and_bounded_optimum_agree(make, variant, alpha, profile):
    """Same cost and witness from either method, and the pinned witness where there is one."""
    g = make()
    cfg = GameConfig(variant, Fraction(alpha))
    full = brute_force_optimum(g, cfg, exhaustive_limit=g.n)
    bounded = brute_force_optimum(g, cfg, exhaustive_limit=0)
    assert isinstance(full.method, FullEnumeration) and isinstance(bounded.method, BoundedCardinality)
    assert (bounded.best_cost, bounded.best_profile) == (full.best_cost, full.best_profile)
    if profile is not None:
        assert full.best_profile.ids == profile


def test_profile_floors_leave_under_one_percent_of_a_cover_to_cost(monkeypatch):
    """The 40-node SUM reduction of 6 elements and 5 sets, where the greedy
    seed is already optimal: the level floors admit levels 1-6 and their
    14,386 canonical profiles (levels 7 and 8 and their 58,856 go unbuilt),
    fewer than 1% of those reach the exact costing, and the optimum still
    holds the marked node c and a minimum cover (criterion 9)."""
    inst = parse_set_cover("6 5\n0 2 3\n0 2 3 5\n0 1\n0 5\n2 4\n")
    art = reduce_set_cover(inst, SUM)
    assert art.graph.n == 40
    admitted = []
    build = optimization._canonical_masks

    def recording(classes, levels):
        groups = build(classes, levels)
        admitted.append((levels, sum(map(len, groups.values()))))
        return groups

    monkeypatch.setattr(optimization, "_canonical_masks", recording)
    costed = count_calls(monkeypatch, "term_sums_for_masks", "_engine")
    res = brute_force_optimum(art.graph, GameConfig(SUM, art.alpha), exhaustive_limit=0)
    assert admitted == [([1, 2, 3, 4, 5, 6], 14386)]
    assert 100 * sum(len(args[1]) for args in costed) < admitted[0][1]
    roles = art.roles
    picked = [i for i, node in enumerate(roles["set_nodes"]) if node in res.best_profile]
    assert roles["c"] in res.best_profile
    assert len(picked) == min_cover_size(inst)
    assert set().union(*(inst.sets[i] for i in picked)) == set(range(inst.m))


def test_clique_catalog(k4):
    cfg = GameConfig(SUM, Fraction(3, 2))
    cat = enumerate_equilibria(k4, cfg)
    assert [p.ids for p, _ in cat.equilibria] == [(0, 1, 2, 3), (0,), (1,), (2,), (3,)]
    assert [c for _, c in cat.equilibria] == [6, *([Fraction(27, 2)] * 4)]
    assert cat.poa == Fraction(9, 4)
    assert cat.pos == 1
    assert cat.optimum.best_cost == 6
    alpha, n = Fraction(3, 2), 4
    assert cat.poa == (alpha + n * (n - 1)) / (n * alpha)


def test_path_tiny_alpha_unique_equilibrium(p3):
    cat = enumerate_equilibria(p3, GameConfig(SUM, Fraction(1, 2)))
    assert [p.ids for p, _ in cat.equilibria] == [(0, 1, 2)]
    assert cat.poa == cat.pos == 1


def test_long_path_boundary_alpha_keeps_expensive_equilibria():
    """At alpha = n(n-1) every singleton stays an equilibrium and the ratio
    exceeds one, so the constant envelope is context, not an identity."""
    g = path_graph(10)
    cfg = GameConfig(SUM, Fraction(90))
    cat = enumerate_equilibria(g, cfg)
    assert len(cat.equilibria) == 10
    assert {c for _, c in cat.equilibria} == {420}
    assert cat.optimum.best_profile.ids == (2, 7)
    assert cat.optimum.best_cost == 370
    assert cat.poa == Fraction(42, 37)
    assert poa_regime(g.n, cfg) == ("alpha >= n(n-1)", "constant")


def test_max_small_alpha_admits_sparse_equilibria(p4):
    """A two-endpoint profile on the four-path is a max-variant equilibrium
    even below alpha = 1, so only the stability ratio collapses to one."""
    cfg = GameConfig(MAX, Fraction(1, 2))
    cat = enumerate_equilibria(p4, cfg)
    assert [p.ids for p, _ in cat.equilibria] == [(0, 1, 2, 3), (0, 3)]
    assert cat.pos == 1
    assert cat.poa == Fraction(5, 2)
    d = all_pairs_distances(p4)
    assert is_nash_equilibrium(d, cfg, StrategyProfile.of([0, 3]))


def test_enumerate_respects_limit(p5):
    with pytest.raises(StateSpaceTooLarge):
        enumerate_equilibria(p5, GameConfig(SUM, 1), exhaustive_limit=4)


@given(connected_graphs(min_n=2, max_n=7), alphas(), st.sampled_from([SUM, MAX]))
@settings(max_examples=40, deadline=None)
def test_price_ratios_ordered(g, alpha, variant):
    cat = enumerate_equilibria(g, GameConfig(variant, alpha))
    if cat.equilibria:
        assert cat.poa >= cat.pos >= 1
    d = all_pairs_distances(g)
    for profile, cost in cat.equilibria:
        assert is_nash_equilibrium(d, GameConfig(variant, alpha), profile)
        assert social_cost(d, GameConfig(variant, alpha), profile) == cost


@given(connected_graphs(min_n=2, max_n=7), st.integers(1, 32))
@settings(max_examples=30, deadline=None)
def test_sum_stability_is_one_for_small_alpha(g, num):
    alpha = Fraction(num * (g.n - 1), 32)
    cat = enumerate_equilibria(g, GameConfig(SUM, alpha))
    assert cat.pos == 1


def test_regime_tags():
    def tag(variant, alpha):
        return poa_regime(5, GameConfig(variant, Fraction(alpha)))[0]

    assert tag(SUM, Fraction(1, 2)) == "alpha < 1"
    assert tag(SUM, 4) == "1 <= alpha <= n-1"
    assert tag(SUM, 10) == "n-1 < alpha < n(n-1)"
    assert tag(SUM, 20) == "alpha >= n(n-1)"
    assert tag(MAX, Fraction(1, 2)) == "alpha < 1"
    assert tag(MAX, 3) == "alpha >= 1"


@pytest.mark.parametrize(
    ("variant", "prices", "envelope"),
    [
        # Below 1 every node opens in the only equilibrium, which is optimal:
        # the abstract's "or else 1" of MAX, and exact for SUM too.
        (SUM, [Fraction(1, 2)], "poa = 1"),
        (SUM, [1, 3, 4], "Theta(n / sqrt(alpha))"),
        pytest.param(
            SUM, [Fraction(9, 2), 10, 19], "Theta(sqrt(alpha))",
            marks=pytest.mark.xfail(
                strict=True,
                reason="poa_regime says Theta(n^2 / alpha); its label is in the poa.0n13 "
                "benchmark digest, so the fix waits for the benchmark refresh (ROADMAP item 0)",
            ),
        ),
        (SUM, [20, 100], "constant"),
        (MAX, [Fraction(1, 2)], "poa = 1"),
        (MAX, [1, 3, 100], "Theta(1 + n / sqrt(alpha))"),
    ],
)
def test_regime_envelopes_follow_the_abstract(variant, prices, envelope):
    """Each (variant, regime) pair's envelope, at n = 5, in the abstract's words."""
    assert {poa_regime(5, GameConfig(variant, Fraction(a)))[1] for a in prices} == {envelope}


def test_exact_arithmetic_survives_huge_prices(p3):
    alpha = Fraction(2**50 + 1, 3)
    cfg = GameConfig(SUM, alpha)
    res = brute_force_optimum(p3, cfg)
    d = all_pairs_distances(p3)
    best = min(
        (
            social_cost(d, cfg, StrategyProfile.from_mask(m))
            for m in range(1, 8)
        ),
    )
    assert res.best_cost == best
    cat = enumerate_equilibria(p3, GameConfig(SUM, Fraction(1, 2**45)))
    assert [p.ids for p, _ in cat.equilibria] == [(0, 1, 2)]
