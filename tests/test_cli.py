import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import build_graph, cli, graph_to_edge_text, graph_to_json

from conftest import run_cli


def manifest_of(proc):
    line = proc.stderr.strip().splitlines()[0]
    return json.loads(line)


@pytest.fixture()
def gadget(tmp_path):
    out = tmp_path / "gadget.json"
    proc = run_cli("gen", "non-wag", "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture()
def k4_file(tmp_path):
    out = tmp_path / "k4.json"
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    out.write_text(graph_to_json(g))
    return out


@pytest.fixture()
def p5_file(tmp_path):
    out = tmp_path / "p5.txt"
    g = build_graph(5, [(i, i + 1) for i in range(4)])
    out.write_text(graph_to_edge_text(g))
    return out


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_gen_writes_graph_and_sidecar(tmp_path):
    out = tmp_path / "cyc.json"
    proc = run_cli(
        "gen", "ir-cycle", "--n", 10, "--c", 1, "--r", 2, "--alpha", 5, "--out", out
    )
    assert proc.returncode == 0, proc.stderr
    graph = json.loads(out.read_text())
    assert graph["n"] == 10
    sidecar = json.loads((tmp_path / "cyc.roles.json").read_text())
    assert sidecar["family"] == "ir-cycle"
    assert sidecar["roles"]["w"] == 2
    assert sidecar["initial"] == [2]
    assert sidecar["params"]["alpha"] == "5/1"
    man = manifest_of(proc)
    assert set(man) >= {"command", "graph_sha256", "cfg", "seed", "version", "timestamp"}
    assert man["cfg"]["alpha"] == "5/1"


def test_gen_rejects_invalid_parameters(tmp_path):
    out = tmp_path / "bad.json"
    proc = run_cli(
        "gen", "ir-cycle", "--n", 10, "--c", 1, "--r", 7, "--alpha", 5, "--out", out
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("error:")
    assert not out.exists()


def test_gen_requires_family_parameters(tmp_path):
    proc = run_cli("gen", "ir-cycle", "--out", tmp_path / "x.json")
    assert proc.returncode == 2
    assert "requires" in proc.stderr


def test_dynamics_cycle_exit_code(gadget):
    proc = run_cli("dynamics", "--graph", gadget, "--alpha", 7, "--init", "w")
    assert proc.returncode == 3
    lines = [json.loads(ln) for ln in proc.stdout.splitlines()]
    outcome = lines[-1]
    assert outcome["outcome"] == "cycle"
    assert outcome["period"] == 4
    steps = lines[:-1]
    assert [s["step"] for s in steps] == list(range(len(steps)))
    assert all(s["move"] in ("open", "close") for s in steps)


def test_dynamics_converges_for_cheap_gateways(gadget):
    proc = run_cli("dynamics", "--graph", gadget, "--alpha", "1/2", "--init", "w")
    assert proc.returncode == 0
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome["outcome"] == "converged"
    assert outcome["final"] == list(range(11))


def test_dynamics_uses_sidecar_initial(gadget):
    with_init = run_cli("dynamics", "--graph", gadget, "--alpha", 7, "--init", "w")
    without = run_cli("dynamics", "--graph", gadget, "--alpha", 7)
    assert without.returncode == 3
    assert without.stdout == with_init.stdout


def test_dynamics_fixed_scheduler_on_max_line(tmp_path):
    out = tmp_path / "line.json"
    assert run_cli("gen", "max-line", "--alpha", 2, "--out", out).returncode == 0
    proc = run_cli(
        "dynamics",
        "--graph", out,
        "--variant", "max",
        "--alpha", 2,
        "--init", "u",
        "--scheduler", "fixed:w,v",
    )
    assert proc.returncode == 3
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"entry_index": 0, "outcome": "cycle", "period": 4}


def test_dynamics_stalls_when_no_allowed_move(p5_file):
    # Both endpoints want to close at this price, but only node 2 may act
    # and its open is not improving: the restricted run stalls.
    proc = run_cli(
        "dynamics",
        "--graph", p5_file,
        "--alpha", 100,
        "--init", "0,4",
        "--scheduler", "opens-only:2",
    )
    assert proc.returncode == 5
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"final": [0, 4], "outcome": "stalled"}


def test_dynamics_budget(p5_file):
    proc = run_cli(
        "dynamics", "--graph", p5_file, "--alpha", "1/2", "--init", "0",
        "--max-steps", 1,
    )
    assert proc.returncode == 4
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"outcome": "budget-exhausted", "steps": 1}


def test_dynamics_rejects_unknown_role(gadget):
    proc = run_cli("dynamics", "--graph", gadget, "--alpha", 7, "--init", "zzz")
    assert proc.returncode == 2
    assert "zzz" in proc.stderr


def test_classify_gadget(gadget):
    proc = run_cli("classify", "--graph", gadget, "--alpha", 7)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["classification"] == "NOT_WEAKLY_ACYCLIC"
    assert doc["state_count"] == 2047
    assert doc["ne_count"] == 12
    assert doc["trapped_count"] == 8
    assert doc["cycle"] is not None


def test_classify_small_alpha_is_fip(p5_file):
    proc = run_cli("classify", "--graph", p5_file, "--alpha", "1/2")
    doc = json.loads(proc.stdout)
    assert doc["classification"] == "FIP"
    assert doc["ne_states"] == [[0, 1, 2, 3, 4]]
    assert doc["trapped_count"] == 0


def test_classify_respects_limit(gadget):
    proc = run_cli("classify", "--graph", gadget, "--alpha", 7, "--limit", 4)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_optimum_path(p5_file):
    proc = run_cli("optimum", "--graph", p5_file, "--alpha", 3)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {
        "bound": None,
        "certified_exact": True,
        "cost": "15/1",
        "method": "full",
        "profile": [0, 1, 2, 3, 4],
    }


def test_optimum_bounded_flag(p5_file):
    proc = run_cli("optimum", "--graph", p5_file, "--alpha", 3, "--bounded")
    doc = json.loads(proc.stdout)
    assert doc["method"] == "bounded"
    assert doc["cost"] == "15/1"
    assert doc["bound"] >= 5


def test_equilibria_csv(k4_file):
    proc = run_cli("equilibria", "--graph", k4_file, "--alpha", "3/2")
    assert proc.returncode == 0
    assert proc.stdout == (
        "profile,cost,is_optimal\n"
        "0 1 2 3,6/1,true\n"
        "0,27/2,false\n"
        "1,27/2,false\n"
        "2,27/2,false\n"
        "3,27/2,false\n"
    )


def test_poa_report(k4_file):
    proc = run_cli("poa", "--graph", k4_file, "--alpha", "3/2")
    doc = json.loads(proc.stdout)
    assert doc["poa"] == "9/4"
    assert doc["pos"] == "1/1"
    assert doc["optimum_cost"] == "6/1"
    assert doc["optimum_profile"] == [0, 1, 2, 3]
    assert doc["equilibrium_count"] == 5
    assert doc["regime"] == "1 <= alpha <= n-1"
    assert doc["n"] == 4 and doc["variant"] == "sum"


def test_error_exit_for_missing_file(tmp_path):
    proc = run_cli("optimum", "--graph", tmp_path / "nope.json", "--alpha", 1)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize(
    "graph, sidecar",
    [
        ('{"n":3}', None),
        ('{"n":3,"edges":[[0]]}', None),
        ('{"n":3,"edges":[[0,1],[1,2]]}', "[1, 2]"),
        ('{"n":2,"edges":' + "[" * 5000 + "]" * 5000 + "}", None),
        ('{"n":3,"edges":[[0,1],[1,2]]}', '{"roles":' + "[" * 5000 + "]" * 5000 + "}"),
    ],
    ids=["edges-missing", "edge-too-short", "sidecar-is-a-list", "graph-nests-deeply",
         "sidecar-nests-deeply"],
)
def test_malformed_document_exits_2(tmp_path, graph, sidecar):
    path = tmp_path / "g.json"
    path.write_text(graph)
    argv = ["optimum", "--graph", path, "--alpha", 1]
    if sidecar is not None:
        (tmp_path / "g.roles.json").write_text(sidecar)
        argv[0] = "dynamics"
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error:")


def run_main(*argv) -> tuple[int, str]:
    """In-process ``cli.main``; returns the exit code and the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 7)
    | st.sampled_from([10**9, 1.5, "0", "u", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "roles", "initial", "u", "v"]), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def graph_documents(draw) -> str:
    n = draw(st.integers(1, 6))
    doc = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["n", "edges", "edge", "drop"]))
        if key == "drop":
            doc.pop(draw(st.sampled_from(["n", "edges"])), None)
        elif key == "edge" and isinstance(doc.get("edges"), list):
            doc["edges"].append(draw(json_values))
        else:
            doc[key if key != "edge" else "edges"] = draw(json_values)
    if draw(st.booleans()):
        return json.dumps(doc)
    # Edge-list form, from whatever the mutated document still holds.
    lines = [str(doc.get("n", ""))]
    edges = doc.get("edges")
    for e in edges if isinstance(edges, list) else [edges]:
        lines.append(" ".join(map(str, e)) if isinstance(e, list) else str(e))
    return "\n".join(lines) + "\n"


@st.composite
def sidecar_documents(draw):
    doc = {"roles": {"u": 1, "v": [2, 3]}, "initial": [0]}
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["top", "roles", "whole"]))
        if where == "whole":
            doc = draw(json_values)
        elif where == "roles" and isinstance(doc, dict) and isinstance(doc.get("roles"), dict):
            doc["roles"][draw(st.sampled_from(["u", "v"]))] = draw(json_values)
        elif isinstance(doc, dict):
            doc[draw(st.sampled_from(["roles", "initial", "u"]))] = draw(json_values)
    return json.dumps(doc)


@st.composite
def set_cover_documents(draw) -> str:
    m = draw(st.integers(2, 5))
    n_sets = draw(st.integers(1, 4))
    tokens = [[str(m), str(n_sets)]]
    for _ in range(n_sets):
        tokens.append([str(e) for e in draw(st.lists(st.integers(0, m - 1), max_size=m))])
    junk = st.sampled_from(["-1", "0", "1", "3", "7", "x", "1.5", ""])
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["replace", "append", "drop-line"]))
        if action == "drop-line":
            tokens.pop(line)
            if not tokens:
                break
        elif action == "append" or not tokens[line]:
            tokens[line].append(draw(junk))
        else:
            tokens[line][draw(st.integers(0, len(tokens[line]) - 1))] = draw(junk)
    return "\n".join(" ".join(t) for t in tokens) + "\n"


@pytest.mark.filterwarnings("ignore:cost separation")
@given(graph_documents(), sidecar_documents(), set_cover_documents(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_mutated_documents_exit_0_or_2(graph, sidecar, cover, use_init):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.json").write_text(graph)
        code, err = run_main("optimum", "--graph", tmp / "g.json", "--alpha", 1)
        assert code in (0, 2) and "Traceback" not in err, (graph, err)

        # At alpha < 1 every improving path ends with all nodes open.
        path = tmp / "p4.json"
        path.write_text(graph_to_json(build_graph(4, [(0, 1), (1, 2), (2, 3)])))
        (tmp / "p4.roles.json").write_text(sidecar)
        init = ("--init", "u,v") if use_init else ()
        code, err = run_main("dynamics", "--graph", path, "--alpha", "1/2", *init)
        assert code in (0, 2) and "Traceback" not in err, (sidecar, err)

        (tmp / "cover.txt").write_text(cover)
        for variant in ("sum", "max"):
            code, err = run_main(
                "reduce", "--setcover", tmp / "cover.txt", "--variant", variant,
                "--out", tmp / "red.json",
            )
            assert code in (0, 2) and "Traceback" not in err, (cover, err)


def test_repeat_runs_are_byte_identical(tmp_path, gadget, k4_file, p5_file):
    regen = tmp_path / "again.json"
    invocations = [
        ("gen", "non-wag", "--out", regen),
        ("dynamics", "--graph", gadget, "--alpha", 7, "--init", "w"),
        ("dynamics", "--graph", gadget, "--alpha", 7, "--scheduler", "random",
         "--seed", 11),
        ("classify", "--graph", gadget, "--alpha", 7),
        ("optimum", "--graph", p5_file, "--alpha", 3),
        ("equilibria", "--graph", k4_file, "--alpha", "3/2"),
        ("poa", "--graph", k4_file, "--alpha", "3/2"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        snapshot = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
        second = run_cli(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert snapshot == [p.read_bytes() for p in sorted(tmp_path.iterdir())]