"""Self-test of the outside-in tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_tracer.py

A layer's spans are only recorded when every module that binds a wrapped
function's name sees the wrapper, so these tests fail when a refactor binds
a public function somewhere the tracer does not rebind it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import tracer
import workloads

gg = workloads.import_package()


def _bindings(originals: dict[int, tuple[object, object]]) -> list[str]:
    """``module.name`` for every package binding that still holds an original."""
    return [
        f"{module.__name__}.{attr}"
        for module in tracer.package_modules()
        for attr, value in vars(module).items()
        if id(value) in originals and originals[id(value)][0] is value
    ]


@pytest.fixture
def installed():
    t = tracer.Tracer()
    with t:
        yield t


def test_every_public_function_of_every_traced_module_is_wrapped():
    before = {module: tracer.public_functions(module) for module in tracer.traced_modules()}
    with tracer.Tracer() as t:
        wrapped = t.wrapped()
        for module, functions in before.items():
            assert functions, module.__name__
            for name, fn in functions.items():
                assert id(fn) in wrapped, f"{module.__name__}.{name}"
                assert getattr(module, name) is wrapped[id(fn)][1]


def test_no_module_still_binds_an_unwrapped_function(installed):
    assert _bindings(installed.wrapped()) == []


def test_names_imported_across_modules_are_rebound(installed):
    for module in (gg.game, gg.dynamics, gg.constructions, gg):
        assert module.evaluate_move.__wrapped__ is not None, module.__name__
    assert gg.cli.run_dynamics is gg.dynamics.run_dynamics
    assert gg.optimization.social_cost is gg.game.social_cost


def test_uninstall_restores_every_binding():
    t = tracer.Tracer()
    with t:
        originals = t.wrapped()
        assert originals
    assert not hasattr(gg.game.evaluate_move, "__wrapped__")
    assert len(_bindings(originals)) > len(originals)


def test_spans_reach_each_layer_and_self_time_excludes_children(installed):
    path = gg.build_graph(7, [(i, i + 1) for i in range(6)])
    cfg = gg.GameConfig(gg.Variant.SUM, Fraction(3, 2))
    trace = gg.run_dynamics(path, cfg, gg.StrategyProfile.of([0]), gg.BestGain())
    gg.replay_trace(path, cfg, trace)
    gg.construct_max_ne(path, 2)
    gg.enumerate_equilibria(path, cfg)
    gg.enumerate_equilibria(path, gg.GameConfig(gg.Variant.SUM, 1 + workloads.KNIFE_EDGE))
    gg.brute_force_optimum(path, cfg, mode="bounded")

    calls, counts = installed.calls, installed.counts
    assert calls["dynamics.run_dynamics"] == 1
    assert counts["dynamics.run_dynamics.steps"] == len(trace.steps) > 0
    # BestGain evaluates every node at every visited profile.
    assert counts["dynamics.run_dynamics.evaluate_move_calls"] == 7 * (len(trace.steps) + 1)
    assert counts["constructions.construct_max_ne.candidates"] >= 1
    assert calls["engine.term_table"] == 2
    assert counts["engine.term_table.rows"] == 2 << 7
    assert counts["engine.improving_tables.fraction_calls"] == 1
    assert counts["optimization.bounded_profiles_costed"] == counts["engine.term_sums_for_masks.masks"] > 0
    assert calls["graphs.all_pairs_distances"] >= 4
    assert installed._stack == []
    assert all(value >= 0 for value in installed.self_s.values())
