import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateway_games import build_graph, cli, graph_to_json, graphs

from conftest import assert_one_error, edge_list_text, path_graph, run_cli


def manifest_of(proc):
    line = proc.stderr.strip().splitlines()[0]
    return json.loads(line)


def run_main(*argv) -> subprocess.CompletedProcess[str]:
    """In-process ``cli.main``, its exit code and output shaped like ``run_cli``'s."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


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
    out.write_text(edge_list_text(g))
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


SIDECAR_COVER = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
# sha256 prefixes of the graph file and of the whole .roles.json sidecar that
# ``main`` writes, recorded before generators and reductions shared one type.
SIDECAR_DIGESTS = [
    ("gen ir-cycle --n 10 --c 1 --r 2 --alpha 5", "166d326bb2fa1d97", "290036798a12bc6a"),
    ("gen ir-cycle --n 20 --c 5 --r 4 --alpha 60", "7714ada75409cb04", "ead6420bd196f864"),
    ("gen non-wag", "d05c8ae916bbd188", "ffaab8e39f15fdc4"),
    ("gen non-wag --alpha 25/2 --experimental", "b05742f3260a960b", "24a2f4648fd89bb3"),
    ("gen sum-poa-star --n 16 --alpha 9", "736404f98e848bb7", "4430e601c2de94c1"),
    ("gen max-line --alpha 7/2", "321ffbaf2410b821", "7a1019f6c3a830c9"),
    ("gen max-poa-star --n 7", "9973eda917b9913f", "31e5ce4ae6b4661e"),
    ("reduce --variant sum", "5bff855bc3d3d92f", "b8042e4aa1881aa6"),
    ("reduce --variant max", "2da6dcee5b648c96", "4059b38c5b1c6607"),
]


@pytest.mark.parametrize("command, graph_digest, sidecar_digest", SIDECAR_DIGESTS)
def test_gen_and_reduce_files_match_recorded_digests(
    tmp_path, capsys, command, graph_digest, sidecar_digest
):
    out = tmp_path / "g.json"
    argv = command.split() + ["--out", str(out)]
    if argv[0] == "reduce":
        cover = tmp_path / "cover.txt"
        cover.write_text(SIDECAR_COVER)
        argv[1:1] = ["--setcover", str(cover)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a SUM reduction of five sets warns
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    assert digest(out) == graph_digest
    assert digest(tmp_path / "g.roles.json") == sidecar_digest


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


@pytest.mark.parametrize(
    "cmd, text, error",
    [
        ("optimum", "4 9\n0 1\n", "error: expected 'n' header, got '4 9'"),
        ("optimum", "four\n0 1\n", "error: expected 'n' header, got 'four'"),
        ("optimum", "2\n0 a\n", "error: malformed edge line: '0 a'"),
        ("reduce", "3 x\n0 1 2\n", "error: expected 'm n_sets' header, got '3 x'"),
        ("reduce", "3 2\n0 1 a\n2\n", "error: malformed set line: '0 1 a'"),
    ],
    ids=[
        "graph-header-two-tokens", "graph-header-word", "edge-word", "cover-header-word",
        "set-word",
    ],
)
def test_malformed_text_line_is_named(tmp_path, cmd, text, error):
    path = tmp_path / "in.txt"
    path.write_text(text)
    if cmd == "reduce":
        argv = [cmd, "--setcover", path, "--variant", "sum", "--out", tmp_path / "r.json"]
    else:
        argv = [cmd, "--graph", path, "--alpha", 1]
    proc = run_cli(*argv)
    assert_one_error(proc)
    assert proc.stderr.splitlines()[-1] == error


def test_zero_denominator_price_is_named(p5_file):
    proc = run_cli("optimum", "--graph", p5_file, "--alpha", "1/0")
    assert proc.returncode == 2 and proc.stdout == ""
    errors = [ln for ln in proc.stderr.splitlines() if "error:" in ln]
    assert errors == ["gateway-games optimum: error: argument --alpha: '1/0' has a zero denominator"]
    assert "Traceback" not in proc.stderr


def test_alpha_accepts_common_forms_and_names_bad_ones(k4_file, capsys):
    """``--alpha`` reads ``p/q``, decimals and padded integers exactly; a bad
    literal or a zero denominator is an argparse error (exit 2) that names it."""
    for text, alpha in [("5/2", "5/2"), ("3.5", "7/2"), (" 7 ", "7/1")]:
        assert cli.main(["poa", "--graph", str(k4_file), "--alpha", text]) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == alpha
    for text, message in [
        ("nope", "Invalid literal for Fraction: 'nope'"),
        ("1/0", "'1/0' has a zero denominator"),
    ]:
        with pytest.raises(SystemExit) as exit_:
            cli.main(["poa", "--graph", str(k4_file), "--alpha", text])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"gateway-games poa: error: argument --alpha: {message}"


def test_small_sum_reduction_warns_in_one_plain_line(tmp_path):
    """A SUM cover of at most four sets or elements gets one ``warning:`` line
    on stderr, not a raw Python warning; the run still succeeds."""
    cover = tmp_path / "cover.txt"
    cover.write_text(cover_text(3, 6))
    proc = run_cli("reduce", "--setcover", cover, "--variant", "sum", "--out", tmp_path / "r.json")
    assert proc.returncode == 0 and proc.stdout == ""
    warning, manifest = proc.stderr.splitlines()
    assert warning == (
        "warning: cost separation is only guaranteed for more than four sets and elements"
    )
    assert json.loads(manifest)["command"][0] == "reduce"
    assert "UserWarning" not in proc.stderr
    assert (tmp_path / "r.roles.json").exists()


def test_sidecar_without_roles_key_is_not_read_as_roles(tmp_path):
    """Role names come only from a sidecar's ``"roles"`` object: a flat
    ``{"u": 0}`` names no role, so ``--init u`` is one error."""
    graph = tmp_path / "p3.txt"
    graph.write_text("3\n0 1\n1 2\n")
    (tmp_path / "p3.roles.json").write_text('{"u": 0}')
    proc = run_cli("dynamics", "--graph", graph, "--alpha", 1, "--init", "u")
    assert_one_error(proc)
    assert proc.stderr.splitlines()[-1] == (
        "error: token 'u' is neither a node id nor a known role"
    )


def cover_text(m, n_sets):
    """``n_sets`` sets that each hold all ``m`` elements."""
    return f"{m} {n_sets}\n" + (" ".join(map(str, range(m))) + "\n") * n_sets


def test_reduce_beyond_physical_memory_exits_2(monkeypatch, tmp_path, capsys):
    """Physical memory for 165 edges of 512 bytes admits the largest instances
    of the benchmark's size class (6 elements, 5 sets) in both variants, each
    set holding every element (SUM 165 edges, MAX 160), and refuses one more
    element for SUM (195) and one more set for MAX (231), with one error line
    and no file written."""
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 165 * 512}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    cases = [("sum", 6, 5, 0), ("max", 6, 5, 0), ("sum", 7, 5, 2), ("max", 6, 6, 2)]
    for variant, m, n_sets, code in cases:
        cover, out = tmp_path / "cover.txt", tmp_path / f"{variant}{m}.{n_sets}.json"
        cover.write_text(cover_text(m, n_sets))
        argv = ["reduce", "--setcover", str(cover), "--variant", variant, "--out", str(out)]
        assert cli.main(argv) == code
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        if code:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and "physical memory" in errors[0]
            assert not out.exists()


def test_gen_and_oracle_beyond_physical_memory_exit_2(monkeypatch, tmp_path, capsys):
    """With 1 MiB of physical memory, ``gen max-line`` at alpha = 10^7 (3e7
    edges) is refused before any edge exists, and ``dynamics`` on a 400-node
    path (9 bytes per distance cell, 1.44 MB) before its distances: each exits
    2 with one error line, and gen writes no file.  2 MiB admits the run: the
    distance build's own peak is below the 1.44 MB of the cells."""
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    out, graph = tmp_path / "line.json", tmp_path / "path.txt"
    graph.write_text(edge_list_text(path_graph(400)))
    refused = [
        ["gen", "max-line", "--alpha", "10000000", "--out", str(out)],
        ["dynamics", "--graph", str(graph), "--alpha", "2"],
    ]
    for argv in refused:
        assert cli.main(argv) == 2
        stdout, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert stdout == "" and len(errors) == 1 and "physical memory" in errors[0]
        assert "Traceback" not in err
    assert not out.exists()
    memory["SC_PHYS_PAGES"] = 512
    assert cli.main(refused[1]) == 0


def test_work_past_any_memory_and_bad_scheduler_ids_are_refused(monkeypatch, tmp_path):
    """On real physical memory, a max line at 10^12 (about 3e12 edges) and the
    distances of a 200,000-node path are refused from their estimates, gen
    writing no file and the path never built as a graph; a scheduler's bad
    node id is refused before the first step, even when the node before it
    would move and the budget is zero."""
    monkeypatch.chdir(tmp_path)
    n = 200_000
    Path("long.txt").write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    Path("p5.txt").write_text(edge_list_text(path_graph(5)))
    for argv in [
        ("gen", "max-line", "--alpha", 10**12, "--out", "line.json"),
        ("dynamics", "--graph", "long.txt", "--alpha", 2),
        ("dynamics", "--graph", "p5.txt", "--alpha", "1/2", "--init", 4,
         "--scheduler", "fixed:0,99", "--max-steps", 0),
    ]:
        with monkeypatch.context() as mp:
            if "long.txt" in argv:
                mp.setattr(cli, "build_graph", unbuilt)
                mp.setattr(graphs, "build_graph", unbuilt)
            assert_one_error(run_main(*argv))
    assert not Path("line.json").exists()


def unbuilt(n, edges):
    raise AssertionError(f"a graph of {n} nodes was built before its oracle was refused")


def test_dynamics_rejects_negative_budget(p5_file):
    proc = run_cli("dynamics", "--graph", p5_file, "--alpha", 1, "--max-steps", -1)
    assert_one_error(proc)


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
    # Eleven nodes: its fixpoint rounds toggle five bits (6 to 10) above the word.
    assert doc["cycle"] == [[0, 2], [0, 1, 2], [1, 2], [2]]


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


@pytest.mark.parametrize("cmd", [["classify"], ["optimum"], ["optimum", "--bounded"]])
def test_negative_limit_flag_exits_2(p5_file, cmd):
    proc = run_cli(*cmd, "--graph", p5_file, "--alpha", 1, "--limit", -1)
    assert_one_error(proc)
    assert "non-negative, got -1" in proc.stderr


@pytest.mark.parametrize("cmd", ["classify", "optimum"])
@pytest.mark.parametrize("value", ["-1", "abc"])
def test_limit_environment_variable_is_ignored(p5_file, monkeypatch, cmd, value):
    """No environment variable sets the exhaustive cap; only ``--limit`` does."""
    plain = run_cli(cmd, "--graph", p5_file, "--alpha", 1)
    monkeypatch.setenv("GATEWAY_GAMES_EXHAUSTIVE_LIMIT", value)
    proc = run_cli(cmd, "--graph", p5_file, "--alpha", 1)
    assert (proc.returncode, proc.stdout) == (0, plain.stdout)
    assert "error" not in proc.stderr


def test_uncovered_elements_of_a_huge_universe_exit_2_briefly(tmp_path):
    """The header's element count costs no memory: only the sets' elements are held."""
    cover = tmp_path / "cover.txt"
    cover.write_text("3000000 1\n0 1\n")
    proc = run_cli("reduce", "--setcover", cover, "--variant", "sum", "--out", tmp_path / "r.json")
    assert_one_error(proc)
    error = proc.stderr.splitlines()[-1]
    assert len(error) < 200
    assert "2999998 of the 3000000 elements are in no set, first [2, 3, 4, 5, 6]" in error


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


@pytest.mark.parametrize(
    "family, variant, alpha, expected",
    [
        (["max-poa-star", "--n", "7"], "max", "3",
         {"poa": "13/10", "pos": "13/10", "equilibrium_count": 7, "regime": "alpha >= 1",
          "envelope": "Theta(1 + n / sqrt(alpha))"}),
        (["sum-poa-star", "--n", "16", "--alpha", "9"], "sum", "9",
         {"poa": "641/144", "pos": "1/1", "regime": "1 <= alpha <= n-1"}),
    ],
    ids=["max-star-7", "sum-star-16"],
)
def test_poa_of_the_star_families(tmp_path, family, variant, alpha, expected):
    """Both price ratios from the catalog, the regime tag and its envelope from
    the price alone; every other report on the instance exits 0 too."""
    graph = tmp_path / "g.json"
    assert run_main("gen", *family, "--out", graph).returncode == 0
    argv = ["--graph", graph, "--variant", variant, "--alpha", alpha]
    for cmd in ("optimum", "classify", "equilibria"):
        assert run_main(cmd, *argv).returncode == 0
    proc = run_main("poa", *argv)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert {key: doc[key] for key in expected} == expected


@pytest.mark.parametrize("variant", ["sum", "max"])
def test_reduced_cover_solves_to_a_minimum_cover(tmp_path, variant):
    """``reduce`` on the 5-cycle's edges, then ``optimum --bounded`` at the
    sidecar's price: the optimum holds the marked node c, and its set nodes
    form a cover of size 3.  For MAX the clique and the copies of each
    element form twin classes."""
    cover, graph = tmp_path / "cover.txt", tmp_path / "r.json"
    cover.write_text(SIDECAR_COVER)
    assert run_main("reduce", "--setcover", cover, "--variant", variant, "--out", graph).returncode == 0
    sidecar = json.loads((tmp_path / "r.roles.json").read_text())
    proc = run_main("optimum", "--graph", graph, "--variant", variant, "--alpha", sidecar["alpha"], "--bounded")
    assert proc.returncode == 0
    chosen, roles = set(json.loads(proc.stdout)["profile"]), sidecar["roles"]
    sets = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}]
    picked = [i for i, node in enumerate(roles["set_nodes"]) if node in chosen]
    assert roles["c"] in chosen
    assert len(picked) == 3 and set().union(*(sets[i] for i in picked)) == set(range(5))


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
        proc = run_main("optimum", "--graph", tmp / "g.json", "--alpha", 1)
        assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr, (graph, proc.stderr)

        # At alpha < 1 every improving path ends with all nodes open.
        path = tmp / "p4.json"
        path.write_text(graph_to_json(build_graph(4, [(0, 1), (1, 2), (2, 3)])))
        (tmp / "p4.roles.json").write_text(sidecar)
        init = ("--init", "u,v") if use_init else ()
        proc = run_main("dynamics", "--graph", path, "--alpha", "1/2", *init)
        assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr, (sidecar, proc.stderr)

        (tmp / "cover.txt").write_text(cover)
        for variant in ("sum", "max"):
            proc = run_main(
                "reduce", "--setcover", tmp / "cover.txt", "--variant", variant,
                "--out", tmp / "red.json",
            )
            assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr, (cover, proc.stderr)


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


def test_one_process_answers_like_fresh_ones_after_an_argparse_error(k4_file, capsys, monkeypatch):
    """``main`` builds its parser once and reuses it: an argparse error, then a
    valid call, in one process give the stdout, stderr (timestamp aside) and
    exit codes of two fresh processes."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width

    def untimed(err):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', err)

    bad = ("classify", "--graph", k4_file)  # no --alpha
    good = ("classify", "--graph", k4_file, "--alpha", "3/2")
    in_process = []
    for argv in (bad, good):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, untimed(err)))
    fresh = [run_cli(*argv) for argv in (bad, good)]
    assert in_process == [(p.returncode, p.stdout, untimed(p.stderr)) for p in fresh]
    assert in_process[0][0] == 2 and in_process[0][2].startswith("usage: gateway-games classify")
    parser = cli._parser
    assert cli.main([str(a) for a in good]) == 0
    assert cli._parser is parser
