"""Outside-in layer tracing for ``gateway_games``.

``Tracer.install`` wraps every public function defined in each traced module
and rebinds the wrapper under every name that any ``gateway_games`` module
(the package ``__init__`` included) binds to the original, so a call through
``from .game import evaluate_move`` is traced as well as one through
``game.evaluate_move``.  Nothing inside ``src/`` changes.

Each wrapped call is a span.  The tracer keeps, per function, the call count
and the self time: the span's duration minus the time its wrapped child spans
cover.  Spans are aggregated as they close instead of being stored, because a
``local`` run makes millions of ``evaluate_move`` calls.  A few functions
carry hooks that add work counts read from their arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("graphs", "game", "_engine", "dynamics", "optimization", "constructions", "cli")

def layer_name(module: str, function: str) -> str:
    """``gateway_games._engine`` + ``term_table`` -> ``engine.term_table``.

    Metric names must start with a letter or digit, so ``_engine`` reads
    ``engine``.
    """
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{function}"


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def traced_modules() -> list:
    return [importlib.import_module(f"gateway_games.{short}") for short in TRACED_MODULES]


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gateway_games" or name.startswith("gateway_games."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._originals: dict[int, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced module and rebind them everywhere."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for module in traced_modules():
            for fname, fn in public_functions(module).items():
                name = layer_name(module.__name__, fname)
                self._originals[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()
        self._originals.clear()

    def wrapped(self) -> dict[int, tuple[object, object]]:
        """``id(original) -> (original, wrapper)`` for every wrapped function."""
        return dict(self._originals)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            before = hook.enter(self) if hook else None
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook:
                hook.exit(self, args, kwargs, result, before)
            return result

        return span

    def _hooks(self) -> dict[str, "_Hook"]:
        counts = self.counts

        def term_table(t, args, kwargs, result, before):
            n = args[0].shape[0]
            counts["engine.term_table.rows"] += 1 << n
            counts["engine.term_table.out_bytes_computed"] += 4 * (1 << n) * n

        limit = importlib.import_module("gateway_games._engine").SCALE_LIMIT

        def improving_tables(t, args, kwargs, result, before):
            # A price at or above the engine's limit takes its exact-Fraction branch.
            alpha = args[1] if len(args) > 1 else kwargs["alpha"]
            if alpha.numerator >= limit or alpha.denominator >= limit:
                counts["engine.improving_tables.fraction_calls"] += 1

        def term_sums_for_masks(t, args, kwargs, result, before):
            masks = args[1] if len(args) > 1 else kwargs["masks"]
            counts["engine.term_sums_for_masks.masks"] += len(masks)

        def run_dynamics(t, args, kwargs, result, before):
            counts["dynamics.run_dynamics.steps"] += len(result.steps)
            counts["dynamics.run_dynamics.evaluate_move_calls"] += t.calls["game.evaluate_move"] - before

        def build_ir_state_graph(t, args, kwargs, result, before):
            counts["dynamics.build_ir_state_graph.states"] += result.state_count

        def brute_force_optimum(t, args, kwargs, result, before):
            if type(result.method).__name__ == "BoundedCardinality":
                costed = counts["engine.term_sums_for_masks.masks"] - before
                counts["optimization.bounded_profiles_costed"] += costed

        def construct_max_ne(t, args, kwargs, result, before):
            counts["constructions.construct_max_ne.candidates"] += t.calls["game.is_nash_equilibrium"] - before

        return {
            "engine.term_table": _Hook(term_table),
            "engine.improving_tables": _Hook(improving_tables),
            "engine.term_sums_for_masks": _Hook(term_sums_for_masks),
            "dynamics.run_dynamics": _Hook(run_dynamics, lambda t: t.calls["game.evaluate_move"]),
            "dynamics.build_ir_state_graph": _Hook(build_ir_state_graph),
            "optimization.brute_force_optimum": _Hook(
                brute_force_optimum, lambda t: t.counts["engine.term_sums_for_masks.masks"]
            ),
            "constructions.construct_max_ne": _Hook(
                construct_max_ne, lambda t: t.calls["game.is_nash_equilibrium"]
            ),
        }


class _Hook:
    """``enter`` snapshots a counter when a span opens; ``exit`` records work counts."""

    def __init__(self, exit, enter=None) -> None:
        self.exit = exit
        self.enter = enter or (lambda t: None)
