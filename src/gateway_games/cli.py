"""Command-line entry point.

Subcommands: gen, dynamics, classify, optimum, equilibria, poa, reduce.
Every run echoes a manifest line to stderr (command, graph hash, config,
seed, version, timestamp); stdout and output files carry only data, so
repeated runs with the same inputs are byte-identical.  Rationals are
always serialized as "p/q" strings.

Exit codes: 0 success/converged, 2 bad input or size limit, 3 improving-
response cycle, 4 step budget exhausted, 5 restricted scheduler stalled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import (
    IrCycleParams,
    gen_ir_cycle,
    gen_max_line,
    gen_max_poa_star,
    gen_non_wag,
    gen_sum_poa_star,
    parse_set_cover,
    reduce_set_cover,
)
from .dynamics import (
    BestGain,
    BudgetExhausted,
    ConvergedToNE,
    CycleDetected,
    FixedSequence,
    OpensOnly,
    RandomSeeded,
    RoundRobin,
    Stalled,
    build_ir_state_graph,
)
from .dynamics import run_dynamics
from .errors import GatewayGameError
from .game import GameConfig, StrategyProfile, Variant, frac_str, parse_fraction
from .graphs import graph_to_json, parse_graph
from .optimization import (
    BoundedCardinality,
    brute_force_optimum,
    catalog_to_csv,
    enumerate_equilibria,
    poa_regime_report,
)

WITNESS_CAP = 32


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _jsonable(value):
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(val) for val in value]
    return value


def _emit_manifest(argv, graph_text, cfg, seed) -> None:
    entry = {
        "command": list(argv),
        "graph_sha256": hashlib.sha256(graph_text.encode()).hexdigest()
        if graph_text is not None
        else None,
        "cfg": {"variant": cfg.variant.value, "alpha": frac_str(cfg.alpha)}
        if cfg is not None
        else None,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    print(json.dumps(entry, sort_keys=True), file=sys.stderr)


def _roles_path(path: Path) -> Path:
    return path.with_name(path.stem + ".roles.json")


def _load_roles(args) -> dict | None:
    if getattr(args, "roles", None):
        path = Path(args.roles)
    else:
        path = _roles_path(Path(args.graph))
        if not path.exists():
            return None
    try:
        doc = json.loads(path.read_text())
    except RecursionError:
        raise GatewayGameError(f"roles sidecar {path} nests too deeply") from None
    if not isinstance(doc, dict):
        raise GatewayGameError(f"roles sidecar {path} must be a JSON object")
    if not isinstance(doc.get("roles") or {}, dict):
        raise GatewayGameError(f'roles sidecar {path}: "roles" must be an object')
    initial = doc.get("initial") or []
    if not isinstance(initial, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in initial
    ):
        raise GatewayGameError(f'roles sidecar {path}: "initial" must be a list of node ids')
    return doc


def _flatten(value) -> list[int]:
    if isinstance(value, bool) or not isinstance(value, (int, list, tuple)):
        raise ValueError(f"role value {value!r} is not a node id or id list")
    if isinstance(value, int):
        return [value]
    out: list[int] = []
    for item in value:
        out.extend(_flatten(item))
    return out


def _resolve_tokens(text: str, roles: dict | None, n: int) -> list[int]:
    """Comma/space-separated node ids, role names, or the token ``all``."""
    ids: list[int] = []
    role_table = (roles or {}).get("roles", roles) or {}
    for token in re.split(r"[,\s]+", text.strip()):
        if not token:
            continue
        if token == "all":
            ids.extend(range(n))
        elif re.fullmatch(r"\d+", token):
            ids.append(int(token))
        elif token in role_table:
            ids.extend(_flatten(role_table[token]))
        else:
            raise GatewayGameError(
                f"token {token!r} is neither a node id nor a known role"
            )
    if not ids:
        raise GatewayGameError("at least one node is required")
    return ids


def _parse_scheduler(text: str, roles: dict | None, n: int, seed: int):
    if text == "round-robin":
        return RoundRobin()
    if text == "random":
        return RandomSeeded(seed)
    if text == "best-gain":
        return BestGain()
    if text == "opens-only":
        return OpensOnly(frozenset(range(n)))
    if text.startswith("opens-only:"):
        return OpensOnly(frozenset(_resolve_tokens(text[11:], roles, n)))
    if text.startswith("fixed:"):
        return FixedSequence(tuple(_resolve_tokens(text[6:], roles, n)))
    raise GatewayGameError(f"unknown scheduler {text!r}")


def _write_generated(out: Path, graph, sidecar: dict) -> None:
    out.write_text(graph_to_json(graph))
    _roles_path(out).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _cmd_gen(args, argv) -> int:
    family = args.family

    def need(*names):
        missing = [f"--{name}" for name in names if getattr(args, name) is None]
        if missing:
            raise GatewayGameError(f"{family} requires {', '.join(missing)}")

    if family == "ir-cycle":
        need("n", "c", "r", "alpha")
        params = IrCycleParams(args.n, args.c, args.r, args.alpha)
        game = gen_ir_cycle(params)
        variant, alpha = Variant.SUM, params.alpha
        recorded = {"n": args.n, "c": args.c, "r": args.r, "alpha": alpha}
    elif family == "non-wag":
        alpha = args.alpha if args.alpha is not None else Fraction(7)
        game = gen_non_wag(alpha, experimental=args.experimental)
        variant = Variant.SUM
        recorded = {"alpha": alpha}
    elif family == "sum-poa-star":
        need("n", "alpha")
        alpha = args.alpha
        game = gen_sum_poa_star(args.n, alpha)
        variant = Variant.SUM
        recorded = {"n": args.n, "alpha": alpha}
    elif family == "max-line":
        need("alpha")
        alpha = args.alpha
        game = gen_max_line(alpha)
        variant = Variant.MAX
        recorded = {"alpha": alpha}
    else:
        need("n")
        game = gen_max_poa_star(args.n)
        variant, alpha = Variant.MAX, None
        recorded = {"n": args.n}

    sidecar = {
        "family": family,
        "variant": variant.value,
        "alpha": frac_str(alpha) if alpha is not None else None,
        "roles": _jsonable(game.roles),
        "initial": list(game.initial.ids) if game.initial is not None else None,
        "params": _jsonable(recorded),
    }
    _write_generated(Path(args.out), game.graph, sidecar)
    cfg = GameConfig(variant, alpha) if alpha is not None else None
    _emit_manifest(argv, graph_to_json(game.graph), cfg, None)
    return 0


def _cmd_reduce(args, argv) -> int:
    inst = parse_set_cover(Path(args.setcover).read_text())
    art = reduce_set_cover(inst, Variant(args.variant))
    sidecar = {
        "family": "setcover-reduction",
        "variant": art.variant.value,
        "alpha": frac_str(art.alpha),
        "roles": _jsonable(art.role_map),
        "initial": None,
        "params": _jsonable(art.params),
        "instance": {
            "m": inst.m,
            "sets": [sorted(s) for s in inst.sets],
        },
    }
    _write_generated(Path(args.out), art.graph, sidecar)
    cfg = GameConfig(art.variant, art.alpha)
    _emit_manifest(argv, graph_to_json(art.graph), cfg, None)
    return 0


def _load_instance(args):
    text = Path(args.graph).read_text()
    g = parse_graph(text)
    cfg = GameConfig(Variant(args.variant), args.alpha)
    return g, cfg, graph_to_json(g)


def _cmd_dynamics(args, argv) -> int:
    g, cfg, canonical = _load_instance(args)
    roles = _load_roles(args)
    _emit_manifest(argv, canonical, cfg, args.seed)
    if args.init is not None:
        init_ids = _resolve_tokens(args.init, roles, g.n)
    elif roles and roles.get("initial"):
        init_ids = list(roles["initial"])
    else:
        init_ids = [0]
    scheduler = _parse_scheduler(args.scheduler, roles, g.n, args.seed)
    trace = run_dynamics(
        g, cfg, StrategyProfile.of(init_ids), scheduler, max_steps=args.max_steps
    )
    for i, (_, move) in enumerate(trace.steps):
        print(
            json.dumps(
                {
                    "step": i,
                    "node": move.node,
                    "move": move.kind.value,
                    "delta": frac_str(move.cost_delta),
                },
                sort_keys=True,
            )
        )
    outcome = trace.outcome
    if isinstance(outcome, ConvergedToNE):
        doc = {
            "outcome": "converged",
            "final": list(outcome.profile.ids),
            "steps": len(trace.steps),
        }
        code = 0
    elif isinstance(outcome, CycleDetected):
        doc = {
            "outcome": "cycle",
            "entry_index": outcome.entry_index,
            "period": outcome.period,
        }
        code = 3
    elif isinstance(outcome, BudgetExhausted):
        doc = {"outcome": "budget-exhausted", "steps": len(trace.steps)}
        code = 4
    else:
        assert isinstance(outcome, Stalled)
        doc = {"outcome": "stalled", "final": list(outcome.profile.ids)}
        code = 5
    print(json.dumps(doc, sort_keys=True))
    return code


def _cmd_classify(args, argv) -> int:
    g, cfg, canonical = _load_instance(args)
    _emit_manifest(argv, canonical, cfg, None)
    report = build_ir_state_graph(g, cfg, exhaustive_limit=args.limit)
    trapped = report.trapped or ()
    doc = {
        "state_count": report.state_count,
        "classification": report.classification.value,
        "ne_count": len(report.ne_states),
        "ne_states": [list(p.ids) for p in report.ne_states[:WITNESS_CAP]],
        "cycle": [list(p.ids) for p in report.cycle] if report.cycle else None,
        "trapped_count": len(trapped),
        "trapped_examples": [list(p.ids) for p in trapped[:WITNESS_CAP]],
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_optimum(args, argv) -> int:
    g, cfg, canonical = _load_instance(args)
    _emit_manifest(argv, canonical, cfg, None)
    result = brute_force_optimum(
        g,
        cfg,
        mode="bounded" if args.bounded else "auto",
        exhaustive_limit=args.limit,
    )
    bounded = isinstance(result.method, BoundedCardinality)
    doc = {
        "profile": list(result.best_profile.ids),
        "cost": frac_str(result.best_cost),
        "method": "bounded" if bounded else "full",
        "bound": result.method.bound if bounded else None,
        "certified_exact": result.certified_exact,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_equilibria(args, argv) -> int:
    g, cfg, canonical = _load_instance(args)
    _emit_manifest(argv, canonical, cfg, None)
    catalog = enumerate_equilibria(g, cfg, exhaustive_limit=args.limit)
    sys.stdout.write(catalog_to_csv(catalog))
    return 0


def _cmd_poa(args, argv) -> int:
    g, cfg, canonical = _load_instance(args)
    _emit_manifest(argv, canonical, cfg, None)
    catalog = enumerate_equilibria(g, cfg, exhaustive_limit=args.limit)
    report = poa_regime_report(g, cfg, catalog)
    doc = {
        "variant": cfg.variant.value,
        "alpha": frac_str(cfg.alpha),
        "n": g.n,
        "poa": frac_str(report.poa) if report.poa is not None else None,
        "pos": frac_str(report.pos) if report.pos is not None else None,
        "optimum_cost": frac_str(catalog.optimum.best_cost),
        "optimum_profile": list(catalog.optimum.best_profile.ids),
        "equilibrium_count": len(catalog.equilibria),
        "regime": report.regime,
        "envelope": report.envelope,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _add_instance_flags(sub, *, limit=True):
    sub.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    sub.add_argument("--variant", choices=["sum", "max"], default="sum")
    sub.add_argument("--alpha", type=_fraction_arg, required=True)
    if limit:
        sub.add_argument(
            "--limit", type=int, default=None, help="override the exhaustive cap"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateway-games",
        description="Gateway placement games: generators, dynamics, optima, prices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="cmd", required=True)

    gen = subs.add_parser("gen", help="emit a named graph family with a roles sidecar")
    gen.add_argument(
        "family",
        choices=["ir-cycle", "non-wag", "sum-poa-star", "max-line", "max-poa-star"],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--c", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--alpha", type=_fraction_arg)
    gen.add_argument("--experimental", action="store_true")
    gen.add_argument("--out", required=True)

    dyn = subs.add_parser("dynamics", help="run improving-response dynamics")
    _add_instance_flags(dyn, limit=False)
    dyn.add_argument("--roles", help="roles sidecar (default: alongside the graph)")
    dyn.add_argument("--init", help="initial gateways: ids, role names, or 'all'")
    dyn.add_argument(
        "--scheduler",
        default="round-robin",
        help="round-robin | random | best-gain | fixed:<tokens> | opens-only[:<tokens>]",
    )
    dyn.add_argument("--seed", type=int, default=0)
    dyn.add_argument("--max-steps", type=int, default=None)

    cls = subs.add_parser("classify", help="classify the improving-response graph")
    _add_instance_flags(cls)

    opt = subs.add_parser("optimum", help="exact social optimum")
    _add_instance_flags(opt)
    opt.add_argument("--bounded", action="store_true", help="force the bounded method")

    eq = subs.add_parser("equilibria", help="list all equilibria as CSV")
    _add_instance_flags(eq)

    poa = subs.add_parser("poa", help="price of anarchy/stability report")
    _add_instance_flags(poa)

    red = subs.add_parser("reduce", help="embed a set-cover instance as a game")
    red.add_argument("--setcover", required=True, help="text instance: 'm n_sets' header")
    red.add_argument("--variant", choices=["sum", "max"], required=True)
    red.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "dynamics": _cmd_dynamics,
    "classify": _cmd_classify,
    "optimum": _cmd_optimum,
    "equilibria": _cmd_equilibria,
    "poa": _cmd_poa,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args, argv)
    except (GatewayGameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
