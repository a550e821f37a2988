"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints one ``ACCEPTANCE <k>: PASS`` or ``FAIL`` line so the suite
doubles as a check list when run with ``pytest -s tests/test_acceptance.py``.
"""

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from gateway_games import (
    BoundedCardinality,
    Classification,
    CycleDetected,
    FixedSequence,
    GameConfig,
    GatewayGameError,
    IrCycleParams,
    MoveKind,
    StrategyProfile,
    Variant,
    all_pairs_distances,
    brute_force_optimum,
    build_graph,
    build_ir_state_graph,
    cli,
    construct_max_ne,
    enumerate_equilibria,
    gen_ir_cycle,
    gen_max_line,
    gen_max_poa_star,
    gen_non_wag,
    gen_sum_poa_star,
    improving_moves,
    is_nash_equilibrium,
    metrics,
    min_cover_size,
    parse_set_cover,
    private_cost,
    reduce_set_cover,
    run_dynamics,
    social_cost,
)

from conftest import (
    oracle_private_cost,
    random_connected_graph,
    run_cli,
    toggle_walk,
    tree_from_prufer,
)

SUM = Variant.SUM
MAX = Variant.MAX
OPEN = MoveKind.OPEN
CLOSE = MoveKind.CLOSE


def criterion(k):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {k}: FAIL")
                raise
            print(f"ACCEPTANCE {k}: PASS")

        return wrapper

    return decorate


@criterion(1)
def test_criterion_01_private_cost_matches_shortest_path_oracle():
    rnd = random.Random(0xC0FFEE)
    for _ in range(100):
        n = rnd.randrange(2, 13)
        g = random_connected_graph(rnd, n, extra=rnd.randrange(n))
        ids = [v for v in range(n) if rnd.random() < 0.5] or [rnd.randrange(n)]
        s = StrategyProfile.of(ids)
        alpha = Fraction(rnd.randrange(1, 65), 8)
        d = all_pairs_distances(g)
        for variant in (SUM, MAX):
            cfg = GameConfig(variant, alpha)
            for v in range(n):
                assert private_cost(d, cfg, s, v) == oracle_private_cost(
                    g, variant, alpha, s, v
                )


@criterion(2)
def test_criterion_02_everyone_profile_stable_and_optimal_for_cheap_sum():
    rnd = random.Random(2026)
    for _ in range(100):
        n = rnd.randrange(2, 13)
        g = random_connected_graph(rnd, n, extra=rnd.randrange(n))
        alpha = Fraction(rnd.randrange(1, 8 * (n - 1) + 1), 8)
        cfg = GameConfig(SUM, alpha)
        d = all_pairs_distances(g)
        everyone = StrategyProfile.of(range(n))
        assert is_nash_equilibrium(d, cfg, everyone)
        assert brute_force_optimum(g, cfg).best_cost == n * alpha


@criterion(3)
def test_criterion_03_double_path_cycle_replay():
    for n, c, r, alpha in ((10, 1, 2, Fraction(5)), (32, 8, 5, Fraction(140))):
        game = gen_ir_cycle(IrCycleParams(n, c, r, alpha))
        g, roles, initial = game.graph, game.roles, game.initial
        u, v = roles["u"], roles["v"]
        cfg = GameConfig(SUM, alpha)
        trace = run_dynamics(g, cfg, initial, FixedSequence((u, v)))
        assert isinstance(trace.outcome, CycleDetected)
        assert trace.outcome.period == 4
        # Steps I-IV from {w}: u and v open, then u and v close.  In closed
        # form, the distance each open saves and each close regains.
        interior = ((c - 1) // 2) * (c // 2)
        saves = [c * (c + 1) + 2 * r * c, 2 * interior + 2 * c + (n - 2 * c - 1) * c]
        regains = [interior + c * (c + 1) + r * c, interior + (r + 1) * c]
        assert all(alpha < t for t in saves) and all(alpha > t for t in regains)
        steps = toggle_walk(g, cfg, initial, (u, v, u, v))
        assert [(m.node, m.kind) for _, _, m in steps] == [(u, OPEN), (v, OPEN), (u, CLOSE), (v, CLOSE)]
        expected = [alpha - t for t in saves] + [t - alpha for t in regains]
        assert [m.cost_delta for _, _, m in steps] == expected
        assert all(m.is_improving and m.cost_delta == after - before for before, after, m in steps)


@criterion(4)
def test_criterion_04_unique_improving_moves_trap_the_gadget():
    game = gen_non_wag()
    g, roles, initial = game.graph, game.roles, game.initial
    u, v, w = roles["u"], roles["v"], roles["w"]
    cfg = GameConfig(SUM, Fraction(7))
    report = build_ir_state_graph(g, cfg)
    assert report.classification is Classification.NOT_WEAKLY_ACYCLIC
    assert report.state_count == 2047
    assert initial in report.trapped

    d = all_pairs_distances(g)
    state = initial
    seen_after = []
    for _ in range(4):
        moves = improving_moves(d, cfg, state)
        assert len(moves) == 1
        state = state.toggled(moves[0].node)
        seen_after.append(state.ids)
    expected = [
        tuple(sorted((u, w))),
        tuple(sorted((u, v, w))),
        tuple(sorted((v, w))),
        (w,),
    ]
    assert seen_after == expected


@criterion(5)
def test_criterion_05_max_line_cycles_for_fractional_prices():
    for alpha in (Fraction(2), Fraction(5, 2), Fraction(3)):
        game = gen_max_line(alpha)
        g, roles, initial = game.graph, game.roles, game.initial
        v, w = roles["v"], roles["w"]
        cfg = GameConfig(MAX, alpha)
        trace = run_dynamics(g, cfg, initial, FixedSequence((w, v)))
        assert isinstance(trace.outcome, CycleDetected)
        assert trace.outcome.period == 4
        # Steps I-IV from {u}: the mover's cost before and after, in closed form.
        f = math.floor(alpha)
        expected = [
            (2 * f + 2, alpha + f + 1),
            (2 * f + 2, alpha + f + 1),
            # After w closes, the worst-off target is the midpoint between the
            # remaining gateways u and v, not the line's far end.
            (alpha + f + 1, f + 1 + (f + 1) // 2),
            (alpha + 2 * f + 2, 2 * f + 2),
        ]
        assert all(after < before for before, after in expected)
        steps = toggle_walk(g, cfg, initial, (w, v, w, v))
        assert [(m.node, m.kind) for _, _, m in steps] == [(w, OPEN), (v, OPEN), (w, CLOSE), (v, CLOSE)]
        assert [(before, after) for before, after, _ in steps] == expected
        assert all(m.is_improving and m.cost_delta == after - before for before, after, m in steps)


@criterion(6)
def test_criterion_06_tree_equilibrium_constructor_never_misses():
    rnd = random.Random(40)
    hits = 0
    for _ in range(200):
        n = rnd.randrange(4, 41)
        g = tree_from_prufer([rnd.randrange(n) for _ in range(n - 2)], n)
        diameter = metrics(all_pairs_distances(g)).diameter
        alpha = 1 + Fraction(rnd.randrange(4 * (diameter - 1)), 4)
        prof = construct_max_ne(g, alpha)
        d = all_pairs_distances(g)
        assert is_nash_equilibrium(d, GameConfig(MAX, alpha), prof)
        hits += 1
    assert hits == 200


@criterion(7)
def test_criterion_07_star_families_realize_high_anarchy():
    # sum variant: star of six 2-paths, price 9
    game = gen_sum_poa_star(13, 9)
    g, roles, initial = game.graph, game.roles, game.initial
    cfg = GameConfig(SUM, Fraction(9))
    d = all_pairs_distances(g)
    assert is_nash_equilibrium(d, cfg, initial)
    assert social_cost(d, cfg, initial) == 417
    catalog = enumerate_equilibria(g, cfg)
    assert catalog.optimum.best_cost == 117
    assert catalog.poa == Fraction(139, 39)
    assert catalog.poa >= Fraction(13, 6)  # n / (2 * sqrt(alpha))

    # max variant: three 3-paths, price 4
    game = gen_max_poa_star(10)
    g, roles, initial = game.graph, game.roles, game.initial
    cfg = GameConfig(MAX, Fraction(4))
    d = all_pairs_distances(g)
    assert is_nash_equilibrium(d, cfg, initial)
    k = 3
    bound = Fraction(3 * k * k) + Fraction(3, 2) * (k + 1) * k
    assert social_cost(d, cfg, initial) == 52
    assert social_cost(d, cfg, initial) >= bound


@criterion(8)
def test_criterion_08_clique_anarchy_is_exact():
    g = build_graph(4, itertools.combinations(range(4), 2))
    alpha, n = Fraction(3, 2), 4
    catalog = enumerate_equilibria(g, GameConfig(SUM, alpha))
    assert [p.ids for p, _ in catalog.equilibria] == [
        (0, 1, 2, 3),
        (0,),
        (1,),
        (2,),
        (3,),
    ]
    assert catalog.poa == Fraction(9, 4)
    assert catalog.poa == (alpha + n * (n - 1)) / (n * alpha)


@criterion(9)
def test_criterion_09_set_cover_reductions_expose_cover_size():
    texts = {
        3: "6 3\n0 1\n2 3\n4 5\n",
        2: "6 3\n0 1 2\n3 4 5\n0 3\n",
    }
    costs = {}
    for cover_size, text in texts.items():
        inst = parse_set_cover(text)
        assert min_cover_size(inst) == cover_size
        art = reduce_set_cover(inst, MAX)
        res = brute_force_optimum(
            art.graph, GameConfig(MAX, art.alpha), exhaustive_limit=0
        )
        assert isinstance(res.method, BoundedCardinality)
        chosen = set(res.best_profile.ids)
        assert art.roles["c"] in chosen
        picked_sets = [
            i
            for i, node in enumerate(art.roles["set_nodes"])
            if node in chosen
        ]
        assert len(picked_sets) == cover_size
        assert frozenset().union(*(inst.sets[i] for i in picked_sets)) == frozenset(
            range(inst.m)
        )
        costs[cover_size] = res.best_cost
    assert costs[2] < costs[3]

    inst = parse_set_cover("5 5\n0 1 2\n3 4\n0 3\n1 4\n2\n")
    art = reduce_set_cover(inst, SUM)
    res = brute_force_optimum(art.graph, GameConfig(SUM, art.alpha), exhaustive_limit=0)
    assert isinstance(res.method, BoundedCardinality)
    assert res.best_profile.ids == (0, 4, 5)
    assert res.best_cost == 2230
    chosen_sets = [inst.sets[i - 4] for i in res.best_profile.ids if i >= 4]
    assert len(chosen_sets) == min_cover_size(inst) == 2
    assert frozenset().union(*chosen_sets) == frozenset(range(5))


@criterion(10)
def test_criterion_10_extreme_prices_always_terminate():
    total = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
            try:
                g = build_graph(n, edges)
            except GatewayGameError:
                continue
            total += 1
            everyone = tuple(range(n))
            cheap = build_ir_state_graph(g, GameConfig(SUM, Fraction(1, 2)))
            assert cheap.classification is Classification.FIP
            assert [p.ids for p in cheap.ne_states] == [everyone]
            diameter = metrics(all_pairs_distances(g)).diameter
            pricey = build_ir_state_graph(
                g, GameConfig(SUM, Fraction(n * diameter + 1))
            )
            assert pricey.classification is Classification.FIP
            assert {p.ids for p in pricey.ne_states} == {(v,) for v in range(n)}
    assert total == 772


@criterion(11)
def test_criterion_11_every_command_is_deterministic(tmp_path):
    run = functools.partial(run_cli, cwd=tmp_path)

    setcover = tmp_path / "cover.txt"
    setcover.write_text("5 5\n0 1 2\n3 4\n0 3\n1 4\n2\n")
    gadget = tmp_path / "gadget.json"
    line = tmp_path / "line.json"
    proc = run("gen", "non-wag", "--out", gadget)
    assert proc.returncode == 0, proc.stderr
    proc = run("gen", "max-line", "--alpha", "5/2", "--out", line)
    assert proc.returncode == 0, proc.stderr

    invocations = [
        ("gen", "ir-cycle", "--n", 10, "--c", 1, "--r", 2, "--alpha", 5,
         "--out", tmp_path / "cyc.json"),
        ("gen", "sum-poa-star", "--n", 13, "--alpha", 9,
         "--out", tmp_path / "star.json"),
        ("gen", "max-poa-star", "--n", 10, "--out", tmp_path / "mstar.json"),
        ("reduce", "--setcover", setcover, "--variant", "sum",
         "--out", tmp_path / "red.json"),
        ("dynamics", "--graph", gadget, "--alpha", 7, "--seed", 3,
         "--scheduler", "random"),
        ("dynamics", "--graph", line, "--variant", "max", "--alpha", "5/2",
         "--init", "u", "--scheduler", "fixed:w,v"),
        ("classify", "--graph", gadget, "--alpha", 7),
        ("optimum", "--graph", gadget, "--alpha", 7),
        ("equilibria", "--graph", gadget, "--alpha", 7),
        ("poa", "--graph", gadget, "--alpha", 7),
    ]
    for argv in invocations:
        first = run(*argv)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        second = run(*argv)
        assert first.returncode == second.returncode, first.stderr + second.stderr
        assert first.stdout == second.stdout
        assert files == {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if argv[0] in ("optimum", "classify", "poa"):
            json.loads(first.stdout)


# sha256 prefixes of stdout and the exit code of each invocation below,
# recorded before the CLI's handlers shared one loader and one JSON writer.
STDOUT_DIGESTS = [
    ("gen ir-cycle --n 10 --c 1 --r 2 --alpha 5 --out cyc.json", 0, "e3b0c44298fc1c14"),
    ("gen sum-poa-star --n 13 --alpha 9 --out star.json", 0, "e3b0c44298fc1c14"),
    ("gen max-poa-star --n 10 --out mstar.json", 0, "e3b0c44298fc1c14"),
    ("reduce --setcover cover.txt --variant sum --out red.json", 0, "e3b0c44298fc1c14"),
    ("dynamics --graph gadget.json --alpha 7 --seed 3 --scheduler random", 3, "91471bc324719ee7"),
    ("dynamics --graph line.json --variant max --alpha 5/2 --init u --scheduler fixed:w,v",
     3, "978ff793fb2f0e42"),
    ("classify --graph gadget.json --alpha 7", 0, "00fba796db1cfc65"),
    ("optimum --graph gadget.json --alpha 7", 0, "9f5d1336eff5a8ee"),
    ("equilibria --graph gadget.json --alpha 7", 0, "57d0615df8d3f468"),
    ("poa --graph gadget.json --alpha 7", 0, "820eafa09df0485c"),
    ("dynamics --graph p5.txt --alpha 100 --init 0,4 --scheduler opens-only:2", 5, "dbddbf753d421dcb"),
    ("dynamics --graph p5.txt --alpha 1/2 --init 0 --max-steps 1", 4, "dd6d1cf4a4f1946c"),
    ("optimum --graph star.json --alpha 9 --bounded", 0, "9c683178286020be"),
    # Either side of the int16 oracle boundary: 180 and 181 improving opens.
    ("gen sum-poa-star --n 181 --alpha 16 --out star181.json", 0, "e3b0c44298fc1c14"),
    ("dynamics --graph star181.json --alpha 16 --init 0 --scheduler round-robin",
     0, "2f093458f042df0f"),
    ("gen sum-poa-star --n 182 --alpha 16 --out star182.json", 0, "e3b0c44298fc1c14"),
    ("dynamics --graph star182.json --alpha 16 --init 0 --scheduler round-robin",
     0, "b882fc702fb33698"),
]


@criterion(11)
def test_criterion_11_stdout_and_exit_codes_match_recorded_digests(
    tmp_path, monkeypatch, capsys
):
    """Criterion 11's invocations, a stalled and a budget-exhausted run, and
    the bounded optimum on the 13-node SUM star keep their stdout bytes and
    exit codes."""
    monkeypatch.chdir(tmp_path)
    Path("cover.txt").write_text("5 5\n0 1 2\n3 4\n0 3\n1 4\n2\n")
    Path("p5.txt").write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    assert cli.main(["gen", "non-wag", "--out", "gadget.json"]) == 0
    assert cli.main(["gen", "max-line", "--alpha", "5/2", "--out", "line.json"]) == 0
    capsys.readouterr()
    got = []
    for command, _, _ in STDOUT_DIGESTS:
        code = cli.main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        got.append((command, code, digest))
    assert got == STDOUT_DIGESTS
