"""The package's exported names: each resolves, none repeats, removed ones stay gone."""

import gateway_games

REMOVED = (
    "ConditionReport",
    "CostReport",
    "LineConditionReport",
    "ReductionArtifact",
    "RegimeReport",
    "catalog_to_csv",
    "comm_distance",
    "cost_report",
    "graph_to_edge_text",
    "multi_source_levels",
    "parse_fraction",
    "poa_regime_report",
    "resolve_exhaustive_limit",
    "verify_cycle_conditions",
    "verify_max_line_conditions",
)


def test_every_exported_name_resolves_once():
    names = gateway_games.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from gateway_games import *", namespace)  # a dangling name raises here
    assert set(names) <= namespace.keys()


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gateway_games.__all__
        assert not hasattr(gateway_games, name)
