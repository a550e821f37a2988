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
import csv
import hashlib
import io
import json
import re
import sys
import warnings
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .constructions import (
    GeneratedGame,
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
    run_dynamics,
)
from .errors import GatewayGameError
from .game import GameConfig, StrategyProfile, Variant, frac_str
from .graphs import _check_oracle, _is_int, _read_graph, build_graph, graph_to_json
from .optimization import (
    BoundedCardinality,
    brute_force_optimum,
    enumerate_equilibria,
    poa_regime,
)

WITNESS_CAP = 32


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _fraction_json(value) -> str:
    if isinstance(value, Fraction):
        return frac_str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _to_json(doc, indent: int | None = None) -> str:
    """The one JSON writer: sorted keys, every Fraction as ``p/q``."""
    return json.dumps(doc, sort_keys=True, indent=indent, default=_fraction_json)


def _emit_manifest(argv, graph_text, cfg, seed) -> None:
    entry = {
        "command": argv,
        "graph_sha256": hashlib.sha256(graph_text.encode()).hexdigest(),
        "cfg": {"variant": cfg.variant.value, "alpha": cfg.alpha} if cfg is not None else None,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    print(_to_json(entry), file=sys.stderr)


def _roles_path(path: Path) -> Path:
    return path.with_name(path.stem + ".roles.json")


def _load_roles(args) -> dict | None:
    if args.roles:
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
    if not isinstance(initial, list) or not all(map(_is_int, initial)):
        raise GatewayGameError(f'roles sidecar {path}: "initial" must be a list of node ids')
    return doc


def _flatten(value) -> list[int]:
    if _is_int(value):
        return [value]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"role value {value!r} is not a node id or id list")
    out: list[int] = []
    for item in value:
        out.extend(_flatten(item))
    return out


def _resolve_tokens(text: str, roles: dict | None, n: int) -> list[int]:
    """Comma/space-separated node ids, role names, or the token ``all``."""
    ids: list[int] = []
    role_table = (roles or {}).get("roles") or {}
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


# Per gen family: the flags it requires and how it calls its generator.
_FAMILIES = {
    "ir-cycle": (
        ("n", "c", "r", "alpha"),
        lambda a: gen_ir_cycle(IrCycleParams(a.n, a.c, a.r, a.alpha)),
    ),
    "non-wag": (
        (),
        lambda a: gen_non_wag(7 if a.alpha is None else a.alpha, experimental=a.experimental),
    ),
    "sum-poa-star": (("n", "alpha"), lambda a: gen_sum_poa_star(a.n, a.alpha)),
    "max-line": (("alpha",), lambda a: gen_max_line(a.alpha)),
    "max-poa-star": (("n",), lambda a: gen_max_poa_star(a.n)),
}


def _write_game(out: Path, argv, family: str, game: GeneratedGame, **extra) -> int:
    """Write the graph, then its roles sidecar from the game's fields and
    ``extra``, and emit the manifest over the graph text written."""
    cfg = GameConfig(game.variant, game.alpha) if game.alpha is not None else None
    text = graph_to_json(game.graph)
    out.write_text(text)
    sidecar = {
        "family": family,
        "variant": game.variant.value,
        "alpha": game.alpha,
        "roles": game.roles,
        "initial": game.initial.ids if game.initial is not None else None,
        "params": game.params,
        **extra,
    }
    _roles_path(out).write_text(_to_json(sidecar, indent=2) + "\n")
    _emit_manifest(argv, text, cfg, None)
    return 0


def _cmd_gen(args, argv) -> int:
    required, generate = _FAMILIES[args.family]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise GatewayGameError(f"{args.family} requires {', '.join(missing)}")
    return _write_game(Path(args.out), argv, args.family, generate(args))


def _cmd_reduce(args, argv) -> int:
    inst = parse_set_cover(Path(args.setcover).read_text())
    # The library warns when a small SUM cover may not separate costs; the
    # CLI reports that as one plain line, on every call in the process.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        game = reduce_set_cover(inst, Variant(args.variant))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    instance = {"m": inst.m, "sets": [sorted(s) for s in inst.sets]}
    return _write_game(Path(args.out), argv, "setcover-reduction", game, instance=instance)


def _load_instance(args, argv, seed=None):
    """Read the graph, refuse it unbuilt if the distance oracle every command
    builds cannot fit, then build it and the config and emit the manifest."""
    n, edges = _read_graph(Path(args.graph).read_text())
    _check_oracle(n, 0)
    g = build_graph(n, edges)
    cfg = GameConfig(Variant(args.variant), args.alpha)
    _emit_manifest(argv, graph_to_json(g), cfg, seed)
    return g, cfg


# Per dynamics outcome: its name, its exit code and the fields it reports.
_OUTCOMES = {
    ConvergedToNE: ("converged", 0, ("final", "steps")),
    CycleDetected: ("cycle", 3, ("entry_index", "period")),
    BudgetExhausted: ("budget-exhausted", 4, ("steps",)),
    Stalled: ("stalled", 5, ("final",)),
}


def _cmd_dynamics(args, argv) -> int:
    roles = _load_roles(args)
    g, cfg = _load_instance(args, argv, args.seed)
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
        step = {"step": i, "node": move.node, "move": move.kind.value, "delta": move.cost_delta}
        print(_to_json(step))
    name, code, fields = _OUTCOMES[type(trace.outcome)]
    facts = {"final": trace.final.ids, "steps": len(trace.steps), **vars(trace.outcome)}
    print(_to_json({"outcome": name, **{field: facts[field] for field in fields}}))
    return code


def _classify(g, cfg, args) -> dict:
    report = build_ir_state_graph(g, cfg, exhaustive_limit=args.limit)
    trapped = report.trapped or ()
    return {
        "state_count": report.state_count,
        "classification": report.classification.value,
        "ne_count": len(report.ne_states),
        "ne_states": [p.ids for p in report.ne_states[:WITNESS_CAP]],
        "cycle": [p.ids for p in report.cycle] if report.cycle else None,
        "trapped_count": len(trapped),
        "trapped_examples": [p.ids for p in trapped[:WITNESS_CAP]],
    }


def _optimum(g, cfg, args) -> dict:
    # --bounded is a cap of 0; a negative --limit still reaches the library's check.
    limit = 0 if args.bounded and (args.limit or 0) >= 0 else args.limit
    result = brute_force_optimum(g, cfg, exhaustive_limit=limit)
    bounded = isinstance(result.method, BoundedCardinality)
    return {
        "profile": result.best_profile.ids,
        "cost": result.best_cost,
        "method": "bounded" if bounded else "full",
        "bound": result.method.bound if bounded else None,
        "certified_exact": result.certified_exact,
    }


def _equilibria(g, cfg, args) -> str:
    """CSV rows ``profile,cost,is_optimal``; gateway ids space-separated."""
    catalog = enumerate_equilibria(g, cfg, exhaustive_limit=args.limit)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["profile", "cost", "is_optimal"])
    for profile, cost in catalog.equilibria:
        flag = "true" if cost == catalog.optimum.best_cost else "false"
        writer.writerow([" ".join(map(str, profile.ids)), frac_str(cost), flag])
    return buf.getvalue()


def _poa(g, cfg, args) -> dict:
    catalog = enumerate_equilibria(g, cfg, exhaustive_limit=args.limit)
    regime, envelope = poa_regime(g.n, cfg)
    return {
        "variant": cfg.variant.value,
        "alpha": cfg.alpha,
        "n": g.n,
        "poa": catalog.poa,
        "pos": catalog.pos,
        "optimum_cost": catalog.optimum.best_cost,
        "optimum_profile": catalog.optimum.best_profile.ids,
        "equilibrium_count": len(catalog.equilibria),
        "regime": regime,
        "envelope": envelope,
    }


# Per report subcommand: the function that builds its report, and its help.
_REPORTS = {
    "classify": (_classify, "classify the improving-response graph"),
    "optimum": (_optimum, "exact social optimum"),
    "equilibria": (_equilibria, "list all equilibria as CSV"),
    "poa": (_poa, "price of anarchy/stability report"),
}


def _cmd_report(args, argv) -> int:
    """Write a report subcommand's result: the CSV as is, a document as JSON."""
    g, cfg = _load_instance(args, argv)
    build, _ = _REPORTS[args.cmd]
    report = build(g, cfg, args)
    sys.stdout.write(report if isinstance(report, str) else _to_json(report, indent=2) + "\n")
    return 0


def _add_instance_flags(sub):
    sub.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    sub.add_argument("--variant", choices=["sum", "max"], default="sum")
    sub.add_argument("--alpha", type=_fraction_arg, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateway-games",
        description="Gateway placement games: generators, dynamics, optima, prices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="cmd", required=True)

    gen = subs.add_parser("gen", help="emit a named graph family with a roles sidecar")
    gen.add_argument("family", choices=list(_FAMILIES))
    gen.add_argument("--n", type=int)
    gen.add_argument("--c", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--alpha", type=_fraction_arg)
    gen.add_argument("--experimental", action="store_true")
    gen.add_argument("--out", required=True)

    dyn = subs.add_parser("dynamics", help="run improving-response dynamics")
    _add_instance_flags(dyn)
    dyn.add_argument("--roles", help="roles sidecar (default: alongside the graph)")
    dyn.add_argument("--init", help="initial gateways: ids, role names, or 'all'")
    dyn.add_argument(
        "--scheduler",
        default="round-robin",
        help="round-robin | random | best-gain | fixed:<tokens> | opens-only[:<tokens>]",
    )
    dyn.add_argument("--seed", type=int, default=0)
    dyn.add_argument("--max-steps", type=int, default=None)

    for name, (_, summary) in _REPORTS.items():
        report = subs.add_parser(name, help=summary)
        _add_instance_flags(report)
        report.add_argument("--limit", type=int, default=None, help="override the exhaustive cap")
    subs.choices["optimum"].add_argument(
        "--bounded", action="store_true", help="force the bounded method"
    )

    red = subs.add_parser("reduce", help="embed a set-cover instance as a game")
    red.add_argument("--setcover", required=True, help="text instance: 'm n_sets' header")
    red.add_argument("--variant", choices=["sum", "max"], required=True)
    red.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "dynamics": _cmd_dynamics,
    **dict.fromkeys(_REPORTS, _cmd_report),
}


# Built by the first ``main`` call, not at import, and reused by every later
# call in the process: building the seven subparsers costs about as much as a
# small exhaustive request.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args, argv)
    except (GatewayGameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
