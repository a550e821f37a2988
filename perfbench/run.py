"""Closed-loop benchmark of gateway-games on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,local,reduce} \
        [--seed N] [--seconds S] [--trace 0|1]

One client in one thread sends the next request only after the previous one
returns.  The seed orders a fixed pool of requests, cycle after cycle, and
metrics are taken over whole cycles; timings are in reference seconds (see
``speed.py``) with the wall value printed beside each.  Every output is
checked against the digest recorded in ``perfbench/expected/``; a mismatch,
an exception or an unexpected exit code counts as a failed request and makes
the command exit 1.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a warm-up cycle is
followed by alternating untraced and traced whole cycles, and the metrics are
the per-layer ones from ``tracer.py``, per traced cycle.  The command exits 2, without a result, when
``src/gateway_games`` cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import speed
import tracer
import workloads

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
"""Keep this seed out of tuning; re-check a claimed gain on it."""

SETUP_PROBES = 7
P90_MIN_SAMPLES = 100

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
"""Reported in the JSON line.  ``error_rate`` is printed but not reported
there: it is 0 on a correct run, and failures already show as ``failed``."""

PER_LAYER = {
    "graphs.all_pairs_distances.calls": "count/cycle",
    "graphs.all_pairs_distances.self_s": "s/cycle",
    "graphs.metrics.self_s": "s/cycle",
    "graphs.multi_source_levels.calls": "count/cycle",
    "graphs.multi_source_levels.self_s": "s/cycle",
    "graphs.parse_graph.self_s": "s/cycle",
    "game.evaluate_move.calls": "count/cycle",
    "game.evaluate_move.self_s": "s/cycle",
    "game.improving_moves.calls": "count/cycle",
    "game.is_nash_equilibrium.calls": "count/cycle",
    "game.private_cost.calls": "count/cycle",
    "game.private_cost.self_s": "s/cycle",
    "game.social_cost.calls": "count/cycle",
    "game.social_cost.self_s": "s/cycle",
    "engine.term_table.calls": "count/cycle",
    "engine.term_table.self_s": "s/cycle",
    "engine.term_table.rows": "count/cycle",
    "engine.term_table.out_bytes_computed": "bytes/cycle",
    "engine.improving_tables.self_s": "s/cycle",
    "engine.improving_tables.fraction_calls": "count/cycle",
    "engine.term_sums_for_masks.calls": "count/cycle",
    "engine.term_sums_for_masks.masks": "count/cycle",
    "engine.term_sums_for_masks.self_s": "s/cycle",
    "dynamics.run_dynamics.calls": "count/cycle",
    "dynamics.run_dynamics.self_s": "s/cycle",
    "dynamics.run_dynamics.steps": "count/cycle",
    "dynamics.moves_per_step": "moves/step",
    "dynamics.replay_trace.self_s": "s/cycle",
    "dynamics.build_ir_state_graph.calls": "count/cycle",
    "dynamics.build_ir_state_graph.self_s": "s/cycle",
    "dynamics.build_ir_state_graph.states": "count/cycle",
    "optimization.enumerate_equilibria.self_s": "s/cycle",
    "optimization.brute_force_optimum.self_s": "s/cycle",
    "optimization.bounded_profiles_costed": "count/cycle",
    "optimization.greedy_gateways.self_s": "s/cycle",
    "optimization.twin_classes.self_s": "s/cycle",
    "constructions.construct_max_ne.calls": "count/cycle",
    "constructions.construct_max_ne.self_s": "s/cycle",
    "constructions.construct_max_ne.candidates_per_call": "candidates/call",
    "constructions.reduce_set_cover.self_s": "s/cycle",
    "cli.main.calls": "count/cycle",
    "cli.main.self_s": "s/cycle",
    "cli.import_s": "s",
    "tracing.throughput_rps_untraced": "1/s",
    "tracing.throughput_rps_traced": "1/s",
    "tracing.throughput_rps_delta": "1/s",
}

BYPASS = {
    "local": ("engine.", "the local workload must not reach the exhaustive engine"),
    "sweep": ("game.evaluate_move", "the sweep workload must not reach the scalar move kernel"),
}


@dataclass
class Sample:
    request: str
    wall_s: float
    before_s: float
    after_s: float
    correct: bool

    @property
    def reference_s(self) -> float:
        return speed.reference_seconds(self.wall_s, self.before_s, self.after_s)


@dataclass
class LoopResult:
    """The samples of one closed loop, which starts at a cycle boundary."""

    pool_size: int
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.correct for s in self.samples)

    @property
    def whole_cycles(self) -> int:
        return self.attempted // self.pool_size

    def latencies(self, wall: bool = False) -> list[float]:
        """Latencies of the correct requests of whole cycles.

        Every whole cycle runs each request of the pool once, so reporting
        over whole cycles only measures the same work on every seed, and
        percentiles over these samples do not depend on the order.  A run
        that completes no cycle reports over everything it did.  Latencies
        are in reference seconds, or in wall seconds with ``wall=True``.
        """
        whole = self.whole_cycles * self.pool_size or self.attempted
        return [s.wall_s if wall else s.reference_s for s in self.samples[:whole] if s.correct]

    def throughput(self, wall: bool = False) -> float:
        """Correct requests per second of request time, over whole cycles."""
        latencies = self.latencies(wall)
        return len(latencies) / sum(latencies)


def verify(request: workloads.Request, raw, expected: dict) -> str | None:
    recorded = expected.get(request.id)
    if recorded is None:
        return "no recorded output"
    if recorded["input"] != request.input_digest:
        return "input differs from the recorded one"
    if workloads.digest(request.render(raw)) != recorded["output"]:
        return "output differs from the recorded one"
    return request.check(raw)


def program_caches() -> list:
    """Every ``functools`` cache that a package module binds.

    Read before tracing, so that the list holds the caches, not wrappers.
    """
    tracer.traced_modules()  # imports each one
    return [
        value
        for module in tracer.package_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]


def settle(caches: list) -> None:
    """Start a request as a fresh process would: with nothing cached by the
    requests before it and no garbage left by them.

    Both depend on which requests ran before, that is, on the seed.  With
    them left in place, repeats of one ``local`` request ran up to twice as
    long as each other, depending on how far the requests before had filled
    the program's cache of level tuples.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()


def closed_loop(pool: list[workloads.Request], requests, expected: dict, caches: list, *,
                seconds: float = math.inf, cycles: float = math.inf) -> LoopResult:
    """Send ``requests`` one after another, for ``seconds`` or for ``cycles``
    whole cycles of the pool, and check each output.  Settling the program
    and the calibrations just before and after each request are not timed."""
    result = LoopResult(len(pool))
    deadline = perf_counter() + seconds
    while result.attempted < cycles * len(pool) and perf_counter() < deadline:
        request = next(requests)
        settle(caches)
        before = speed.measure()
        sent = perf_counter()
        try:
            raw = request.execute()
            latency = perf_counter() - sent
            after = speed.measure()
            problem = verify(request, raw, expected)
        except Exception as exc:  # a failed request is counted, and the loop goes on
            latency, after = perf_counter() - sent, before  # not measured: it failed
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            result.errors.append(f"{request.id}: {problem}")
        result.samples.append(Sample(request.id, latency, before, after, not problem))
    return result


def traced_loops(pool: list[workloads.Request], seed: int, seconds: float, expected: dict,
                 caches: list, t: tracer.Tracer) -> tuple[LoopResult, list[LoopResult], list[LoopResult]]:
    """A warm-up cycle, then pairs of one untraced and one traced whole cycle.

    The warm-up cycle is checked but not measured, so neither side pays the
    first calls' costs.  The pairs alternate which side runs first, and as
    many pairs run as the warm-up's length says fit in ``seconds``, at least
    one.  Returns the warm-up and the untraced and traced cycles.
    """
    requests = workloads.sequence(pool, seed)
    started = perf_counter()
    warmup = closed_loop(pool, requests, expected, caches, cycles=1)
    cycle_s = perf_counter() - started
    pairs = max(1, int((seconds - cycle_s) // (2 * cycle_s)))
    untraced, traced = [], []
    for pair in range(pairs):
        for side in (untraced, traced) if pair % 2 == 0 else (traced, untraced):
            with t if side is traced else contextlib.nullcontext():
                side.append(closed_loop(pool, requests, expected, caches, cycles=1))
    return warmup, untraced, traced


PROBE = """\
import sys, time
started = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import gateway_games
import_s = time.perf_counter() - started
import run
run.probe({workload!r}, {seed}, import_s)
"""


def probe(workload: str, seed: int, import_s: float) -> None:
    """Finish a fresh interpreter's set-up, build the inputs, and report ready."""
    pool = workloads.build(workload, workloads.WORK / "probe")
    next(workloads.sequence(pool, seed))
    print(json.dumps({"import_s": import_s}), flush=True)


def pin_to_one_cpu() -> None:
    """Keep this process and its set-up probes on one CPU, so that each
    calibration times the core the measured work runs on.  The cores of a
    shared machine run at different speeds: unpinned, the set-up median of
    a run spread 0.33 between runs, and pinned 0.06."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted: run unpinned
        pass


def cache_bytecode() -> None:
    """Write bytecode for the package and for these modules, so the set-up
    probes import them with bytecode cached even where the environment sets
    ``PYTHONDONTWRITEBYTECODE``.  A child process compiles, so compiling does
    not count in this process's peak memory."""
    directories = [str(workloads.SRC / "gateway_games"), str(workloads.BENCH_DIR)]
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-l", *directories],
        stdout=subprocess.DEVNULL, check=True, timeout=120,
    )


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up and import times of fresh interpreters in reference seconds, and
    the set-up times in wall seconds.

    Set-up runs from spawn to the probe's ready line.  Each probe is scaled
    by calibrations taken just before and just after it.
    """
    walls, imports = [], []
    calibrations = [speed.measure(5)]
    code = PROBE.format(src=str(workloads.SRC), bench=str(workloads.BENCH_DIR), workload=workload, seed=seed)
    argv = [sys.executable, "-c", code]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        walls.append(ready - started)
        imports.append(json.loads(line)["import_s"])
        calibrations.append(speed.measure(5))
    brackets = list(zip(calibrations, calibrations[1:]))
    return (
        [speed.reference_seconds(w, *pair) for w, pair in zip(walls, brackets)],
        [speed.reference_seconds(i, *pair) for i, pair in zip(imports, brackets)],
        walls,
    )


def machine_note(gg) -> dict:
    """Informational context for a result set; nothing here is gated."""
    sha = "unknown"
    if (workloads.ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            sha = done.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted(workloads.SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_sha": sha,
        "src_sha256": workloads.digest(b"".join(p.read_bytes() for p in sources)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "all_names": len(gg.__all__),
    }


def end_to_end(loop: LoopResult, setup: list[float], wall: bool = False) -> dict[str, float]:
    latencies = loop.latencies(wall)
    return {
        "throughput_rps": loop.throughput(wall),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def merged(loops: list[LoopResult]) -> LoopResult:
    """One result over the samples of several whole-cycle loops."""
    return LoopResult(loops[0].pool_size, [s for loop in loops for s in loop.samples])


def per_layer(t: tracer.Tracer, imports: list[float], untraced: list[LoopResult],
              traced: list[LoopResult]) -> dict[str, float]:
    """Per-layer figures per traced whole cycle, so every seed and commit
    reports on the same requests whatever the number of cycles."""
    # Self times are scaled to reference seconds by the traced cycles' median factor.
    scale = statistics.median(s.reference_s / s.wall_s for loop in traced for s in loop.samples)
    cycles = len(traced)
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = t.calls[layer] / cycles
        elif stat == "self_s":
            values[name] = t.self_s[layer] * scale / cycles
        else:
            values[name] = t.counts[name] / cycles
    steps = t.counts["dynamics.run_dynamics.steps"]
    values["dynamics.moves_per_step"] = (
        t.counts["dynamics.run_dynamics.evaluate_move_calls"] / steps if steps else 0.0
    )
    builds = t.calls["constructions.construct_max_ne"]
    values["constructions.construct_max_ne.candidates_per_call"] = (
        t.counts["constructions.construct_max_ne.candidates"] / builds if builds else 0.0
    )
    values["cli.import_s"] = statistics.median(imports)
    # Every cycle runs the same requests, so the two sides measure the same work.
    plain = merged(untraced).throughput()
    wrapped = merged(traced).throughput()
    values["tracing.throughput_rps_untraced"] = plain
    values["tracing.throughput_rps_traced"] = wrapped
    values["tracing.throughput_rps_delta"] = plain - wrapped
    return values


def bypass_violations(workload: str, t: tracer.Tracer) -> list[str]:
    if workload not in BYPASS:
        return []
    prefix, reason = BYPASS[workload]
    return [f"{reason}: {layer} ran {count} times" for layer, count in sorted(t.calls.items()) if layer.startswith(prefix) and count]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        gg = workloads.import_package()
    except ImportError as exc:
        print(f"error: cannot import gateway_games from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    cache_bytecode()
    setup, imports, setup_wall = measure_setup(args.workload, args.seed)
    pool = workloads.build(args.workload, workloads.WORK / "run")
    expected = workloads.load_expected(args.workload)
    caches = program_caches()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine_note(gg), sort_keys=True)}")

    if args.trace:
        t = tracer.Tracer()
        warmup, untraced, traced = traced_loops(pool, args.seed, args.seconds, expected, caches, t)
        loops = [warmup, *untraced, *traced]
        violations = bypass_violations(args.workload, t)
    else:
        loops = [closed_loop(pool, workloads.sequence(pool, args.seed), expected, caches, seconds=args.seconds)]
        violations = []

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for message in [e for loop in loops for e in loop.errors][:20] + violations:
        print(f"error: {message}", file=sys.stderr)
    if any(not loop.latencies() for loop in loops):
        print("error: no request completed correctly", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(t, imports, untraced, traced), PER_LAYER
        print(f"# per traced cycle, over {len(traced)} traced and {len(untraced)} untraced cycles after a warm-up cycle")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        loop = loops[0]
        metrics, units = end_to_end(loop, setup), END_TO_END
        wall = end_to_end(loop, setup_wall, wall=True)
        samples = len(loop.latencies())
        shape = f"{samples} samples: {loop.whole_cycles} whole cycles of {loop.pool_size} requests"
        print(f"error_rate {failed / attempted:.6g} failed/attempted  ({failed} of {attempted} requests)")
        for name, value in metrics.items():
            note = f"wall {wall[name]:.6g}" + (f"; {shape}" if name.startswith("latency_") else "")
            print(f"{name} {value:.6g} {units[name]}  ({note})")
        if samples < P90_MIN_SAMPLES:
            print(f"# latency_p90_s rests on {samples} samples, fewer than {P90_MIN_SAMPLES}")
    correct = failed == 0 and not violations
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
