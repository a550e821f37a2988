"""Request pools for the three benchmark workloads, and the seeded request order.

Each workload is a fixed pool of requests built from a fixed pool seed, so
that every request's expected output can be recorded once (``record.py``) and
checked on every run.  The run seed orders the pool: the sequence is cycle
after cycle over the whole pool, each cycle in a fresh seeded order.  The
pools are small enough that a run completes a few whole cycles, and ``run.py``
reports over whole cycles only, so every run measures the same multiset of
requests.  Per-request costs are heavy-tailed (from 0.01 s to 3 s on
``local``), and a run over a random part of a larger pool would measure a
different mix on every seed.

This module imports only the standard library at import time;
``import_package`` puts ``<checkout>/src`` first on ``sys.path`` and imports
``gateway_games`` from there, so the set-up probe can time that import alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
EXPECTED = BENCH_DIR / "expected"

KNIFE_EDGE = Fraction(1, 2**41)
"""Added to an integer price; its denominator sends ``improving_tables`` down
the exact-``Fraction`` branch."""


def import_package():
    """Import ``gateway_games`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gateway_games

    where = Path(gateway_games.__file__).resolve().parent
    if where != SRC / "gateway_games":
        raise ImportError(f"gateway_games was imported from {where}, not {SRC}")
    return gateway_games


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:20]


@dataclass
class Request:
    """One unit of closed-loop work.

    ``execute`` is the timed part and returns raw results; ``render`` turns
    them into the canonical text whose digest is checked against the
    recorded one; ``check`` is an optional property test that returns an
    error message or ``None``.  Neither ``render`` nor ``check`` is timed.
    """

    id: str
    input_digest: str
    execute: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], str | None] = lambda raw: None


def sequence(pool: list[Request], seed: int) -> Iterator[Request]:
    """Endless request order for ``seed``: the whole pool per cycle."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(pool, len(pool))


# -- graph generators -------------------------------------------------------


def random_connected_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random recursive spanning tree plus ``extra`` distinct extra edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def prufer_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniformly random labelled tree from a random Prüfer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def deep_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each node attaches to one of the three most recent nodes: long, thin trees."""
    return [(max(0, i - 1 - rng.randrange(3)), i) for i in range(1, n)]


# -- CLI requests -------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``cli.main`` with stdout captured and the stderr manifest dropped."""
    from gateway_games import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_render(raw) -> str:
    return json.dumps([[code, digest(stdout)] for code, stdout in raw])


def _cli_request(rid: str, argv: list[str], graph_path: Path, graph_text: str) -> Request:
    shown = [graph_path.name if a == str(graph_path) else a for a in argv]
    return Request(
        id=rid,
        input_digest=digest(json.dumps(shown) + graph_text),
        execute=lambda: [run_cli(argv)],
        render=_cli_render,
    )


SUBCOMMANDS = ("classify", "equilibria", "poa", "optimum")
SWEEP_SLOTS = ("n13", "n14", "n14", "n15", "n16", "family", "family", "knife")


def _sweep_prices(n: int) -> list[tuple[str, Fraction]]:
    """One SUM price per regime of ``poa_regime_report``, then three MAX prices."""
    return [
        ("sum", Fraction(1, 2)),
        ("sum", Fraction(n, 2)),
        ("sum", Fraction(2 * n)),
        ("sum", Fraction(n * n)),
        ("max", Fraction(1, 2)),
        ("max", Fraction(3, 2)),
        ("max", Fraction(3)),
    ]


def _families(gg):
    """The ``gen`` families with two (variant, price) choices each."""
    F = Fraction
    return [
        ("non-wag", gg.gen_non_wag(7).graph, [("sum", F(7)), ("sum", F(3))]),
        ("max-line", gg.gen_max_line(4).graph, [("max", F(4)), ("max", F(5, 2))]),
        ("sum-poa-star", gg.gen_sum_poa_star(16, 9).graph, [("sum", F(9)), ("sum", F(1, 2))]),
        ("max-poa-star", gg.gen_max_poa_star(16).graph, [("max", F(3)), ("max", F(3, 2))]),
        (
            "ir-cycle",
            gg.gen_ir_cycle(gg.IrCycleParams(12, 1, 3, F(6))).graph,
            [("sum", F(6)), ("sum", F(11, 2))],
        ),
    ]


def build_sweep(work: Path) -> list[Request]:
    """Exhaustive CLI requests: ``classify``, ``equilibria``, ``poa``, ``optimum``.

    Every subcommand gets one request per slot: random connected graphs at
    n = 13..16, two ``gen`` families (all five appear across the
    subcommands), and one knife-edge price (an integer plus 2^-41) on n <= 14.
    """
    gg = import_package()
    rng = random.Random(0x5EE9)
    families = _families(gg)
    work.mkdir(parents=True, exist_ok=True)
    requests = []
    for ci, cmd in enumerate(SUBCOMMANDS):
        for si, slot in enumerate(SWEEP_SLOTS):
            rid = f"{cmd}.{si}{slot}"
            if slot == "family":
                fi = (2 * ci + si) % len(families)
                fam, graph, prices = families[fi]
                variant, alpha = prices[ci % len(prices)]
                rid += f".{fam}"
            else:
                n = 13 + ci % 2 if slot == "knife" else int(slot[1:])
                graph = gg.build_graph(n, random_connected_edges(rng, n, n // 3))
                prices = _sweep_prices(n)
                variant, alpha = prices[(si + ci) % len(prices)]
                if slot == "knife":
                    alpha = Fraction(max(1, alpha.numerator // alpha.denominator)) + KNIFE_EDGE
            text = gg.graph_to_json(graph)
            path = work / f"{rid}.json"
            path.write_text(text)
            argv = [cmd, "--graph", str(path), "--variant", variant, "--alpha", gg.frac_str(alpha)]
            requests.append(_cli_request(rid, argv, path, text))
    return requests


# -- library requests on ~100-node graphs ---------------------------------------


SCHEDULERS = ("round-robin", "random", "best-gain")
LOCAL_SIZES = (80, 100, 120)
LOCAL_TREES = 5


def _render_trace(raw) -> str:
    trace, replayed = raw
    moves = ";".join(
        f"{m.node}{m.kind.value[0]}{m.cost_delta}" for _, m in trace.steps
    )
    return (
        f"{type(trace.outcome).__name__}|final={list(trace.final.ids)}|steps={len(trace.steps)}"
        f"|replayed={len(replayed)}|moves={moves}"
    )


def _dynamics_request(gg, rid: str, graph, cfg, initial, scheduler) -> Request:
    def execute():
        trace = gg.dynamics.run_dynamics(graph, cfg, initial, scheduler)
        return trace, gg.dynamics.replay_trace(graph, cfg, trace)

    shown = f"{gg.graph_to_json(graph)}|{cfg}|{initial.ids}|{scheduler}"
    return Request(rid, digest(shown), execute, _render_trace)


def _construct_request(gg, rid: str, graph, alpha: Fraction) -> Request:
    shown = f"{gg.graph_to_json(graph)}|{alpha}"
    return Request(
        rid,
        digest(shown),
        lambda: gg.constructions.construct_max_ne(graph, alpha),
        lambda profile: f"profile={list(profile.ids)}",
    )


def _tree_diameter(gg, graph) -> int:
    levels = gg.bfs_levels(graph, 0)
    far = max(range(graph.n), key=levels.__getitem__)
    return max(gg.bfs_levels(graph, far))


def build_local(work: Path) -> list[Request]:
    """Dynamics-then-replay and ``construct_max_ne`` requests through the library.

    Dynamics: every scheduler at every price, with the graph size and the
    initial profile rotating across them.  Constructions: Prüfer trees and
    deep trees on 100 nodes, with alpha a multiple of 1/2 spread evenly over
    [1, diameter/2] across the trees of each kind.
    """
    gg = import_package()
    rng = random.Random(0x10CA1)
    requests = []
    for s, slot in enumerate(SCHEDULERS):
        for p in range(5):
            n = LOCAL_SIZES[(s + p) % len(LOCAL_SIZES)]
            graph = gg.build_graph(n, random_connected_edges(rng, n, n // 10))
            variant, alpha = [
                (gg.Variant.SUM, Fraction(n, 4)),
                (gg.Variant.SUM, Fraction(n)),
                (gg.Variant.SUM, Fraction(3 * n)),
                (gg.Variant.MAX, Fraction(5, 2)),
                (gg.Variant.MAX, Fraction(3)),
            ][p]
            initial = gg.StrategyProfile.of([0] if (s + p) % 2 == 0 else range(0, n, 3))
            scheduler = {
                "round-robin": gg.RoundRobin(),
                "random": gg.RandomSeeded(p),
                "best-gain": gg.BestGain(),
            }[slot]
            cfg = gg.GameConfig(variant, alpha)
            requests.append(_dynamics_request(gg, f"{slot}.{p}", graph, cfg, initial, scheduler))
    for kind, make in (("prufer", prufer_tree_edges), ("deep", deep_tree_edges)):
        for k in range(LOCAL_TREES):
            graph = gg.build_graph(100, make(rng, 100))
            diameter = _tree_diameter(gg, graph)
            # One stratum of [1, diameter/2] per tree, in steps of 1/2.
            alpha = Fraction(2 + round((diameter - 2) * (k + 0.5) / LOCAL_TREES), 2)
            requests.append(_construct_request(gg, f"{kind}.{k}", graph, alpha))
    return requests


# -- set-cover reductions above the exhaustive cap --------------------------------


REDUCE_SLOTS = (("sum", 5), ("sum", 6), ("max", 5), ("max", 6))
REDUCE_POOL = 5
REDUCE_SETS = 5


def random_set_cover(rng: random.Random, m: int, n_sets: int, p: float = 0.35) -> list[list[int]]:
    """Each element joins each set with probability ``p``; resampled until every
    element is covered and no set is empty."""
    while True:
        sets = [[e for e in range(m) if rng.random() < p] for _ in range(n_sets)]
        if all(sets) and set().union(*map(set, sets)) == set(range(m)):
            return sets


def _reduce_request(gg, rid: str, work: Path, variant: str, m: int, sets) -> Request:
    text = f"{m} {len(sets)}\n" + "".join(" ".join(map(str, s)) + "\n" for s in sets)
    cover_path = work / f"{rid}.setcover.txt"
    cover_path.write_text(text)
    graph_path = work / f"{rid}.{variant}.json"
    roles_path = graph_path.with_name(graph_path.stem + ".roles.json")
    cover_size = gg.min_cover_size(gg.parse_set_cover(text))

    def execute():
        first = run_cli(["reduce", "--setcover", str(cover_path), "--variant", variant, "--out", str(graph_path)])
        alpha = json.loads(roles_path.read_text())["alpha"]
        second = run_cli(["optimum", "--graph", str(graph_path), "--variant", variant, "--alpha", alpha, "--bounded"])
        return [first, second]

    def render(raw) -> str:
        return _cli_render(raw) + digest(graph_path.read_text()) + digest(roles_path.read_text())

    def check(raw) -> str | None:
        # Criterion 9: the optimum holds the marked node c, and its set nodes
        # form a cover of minimum size.
        roles = json.loads(roles_path.read_text())["roles"]
        chosen = set(json.loads(raw[1][1])["profile"])
        picked = [i for i, node in enumerate(roles["set_nodes"]) if node in chosen]
        covered = set().union(*(set(sets[i]) for i in picked))
        if roles["c"] not in chosen:
            return "optimum does not contain the marked node c"
        if len(picked) != cover_size or covered != set(range(m)):
            return f"optimum picks sets {picked}, not a cover of size {cover_size}"
        return None

    return Request(rid, digest(f"{variant}|{text}"), execute, render, check)


def build_reduce(work: Path) -> list[Request]:
    """``reduce`` then ``optimum --bounded`` on the written graph, through ``cli.main``."""
    gg = import_package()
    rng = random.Random(0x5E7C)
    work.mkdir(parents=True, exist_ok=True)
    requests = []
    for k in range(REDUCE_POOL):
        variant, m = REDUCE_SLOTS[k % len(REDUCE_SLOTS)]
        sets = random_set_cover(rng, m, REDUCE_SETS)
        requests.append(_reduce_request(gg, f"{variant}{m}.{k}", work, variant, m, sets))
    return requests


BUILDERS = {"sweep": build_sweep, "local": build_local, "reduce": build_reduce}


def build(name: str, work: Path) -> list[Request]:
    return BUILDERS[name](work / name)


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())
