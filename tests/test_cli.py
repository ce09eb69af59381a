"""Command-line interface: subcommands, exit codes, determinism, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from math import sqrt
from pathlib import Path

import pytest

from conftest import isomorphic, planted_two_cliques

import cycsets
from cycsets.bitgraph import Graph, from_graph6, to_graph6
from cycsets.cli import main
from cycsets.families import build_competitor, build_extremal, build_knn


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    payload = json.loads(out)
    assert set(payload) == {"manifest", "report"}
    return payload


def _strip_wall(payload: dict) -> str:
    clone = json.loads(json.dumps(payload))
    clone["manifest"].pop("wall_time_s")
    return json.dumps(clone, sort_keys=True)


# -- construct ---------------------------------------------------------------


def test_construct_octahedron_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "octa.g6"
    code, _, err = run(
        capsys, "construct", "extremal", "--n", "3", "--cycles", "4",
        "--out", str(out),
    )
    assert code == 0, err
    g = from_graph6(out.read_text())
    assert isomorphic(g, from_graph6("E}lw"))
    sidecar = json.loads((tmp_path / "octa.g6.json").read_text())
    assert sidecar["report"]["family"] == "extremal"
    assert sidecar["report"]["validated"] is True
    assert sidecar["report"]["degree_min"] == sidecar["report"]["degree_max"] == 4
    assert sidecar["manifest"]["subcommand"] == "construct"


def test_construct_stdout_graph6_only(capsys):
    code, out, _ = run(capsys, "construct", "knn", "--n", "2")
    assert code == 0
    g = from_graph6(out.strip())
    assert isomorphic(g, Graph.cycle(4))


def test_construct_rejects_two_cycle(capsys):
    code, _, err = run(
        capsys, "construct", "extremal", "--n", "4", "--cycles", "3,2"
    )
    assert code == 2
    assert err.strip()


def test_construct_rejects_missing_params(capsys):
    code, _, _ = run(capsys, "construct", "extremal")
    assert code == 2
    code, _, _ = run(capsys, "construct", "competitor")
    assert code == 2


def test_construct_all_families_round_trip(tmp_path, capsys):
    cases = [
        (["extremal", "--n", "3", "--cycles", "4"], build_extremal(3, [4]).graph),
        (["extremal", "--n", "4", "--cycles", "5"], build_extremal(4, [5]).graph),
        (["knn", "--n", "3"], build_knn(3)),
        (["competitor", "--k", "3"], build_competitor(3).graph),
    ]
    for i, (args, want) in enumerate(cases):
        out = tmp_path / f"g{i}.g6"
        code, _, err = run(capsys, "construct", *args, "--out", str(out))
        assert code == 0, err
        got = from_graph6(out.read_text())
        assert got.rows == want.rows  # builders are deterministic; bit-exact


def test_construct_star_family(tmp_path, capsys):
    out = tmp_path / "star.g6"
    code, _, _ = run(capsys, "construct", "star", "--n", "3", "--out", str(out))
    assert code == 0
    g = from_graph6(out.read_text())
    assert g.min_degree() == 4


# -- count -------------------------------------------------------------------


def test_count_k4(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(to_graph6(Graph.complete(4)) + "\n")
    payload = run_json(capsys, "count", str(f))
    rep = payload["report"]
    assert rep["cyclic_count"] == 5
    assert rep["p_exact"] == "5/16"
    assert payload["manifest"]["input_digests"]


def test_count_stdin(capsys, monkeypatch):
    import io

    data = (to_graph6(Graph.complete(4)) + "\n").encode("ascii")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run(capsys, "count", "-")
    assert code == 0
    assert json.loads(out)["report"]["cyclic_count"] == 5


def test_count_budget_exit(tmp_path, capsys):
    f = tmp_path / "big.g6"
    f.write_text(to_graph6(Graph.empty(21)) + "\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 3
    assert "budget" in err.lower()


def test_count_force_stops_at_the_table_cap(tmp_path, capsys):
    f = tmp_path / "k1313.g6"
    f.write_text(to_graph6(build_knn(13)) + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "count", str(f), "--force")
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert "table" in err


def test_count_parse_errors(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert run(capsys, "count", str(empty))[0] == 2
    junk = tmp_path / "junk.g6"
    junk.write_text("\x01\x02 nonsense\n")
    assert run(capsys, "count", str(junk))[0] == 2


def test_count_worker_invariance(tmp_path, capsys):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    a = run_json(capsys, "count", str(f), "--workers", "1")
    b = run_json(capsys, "count", str(f), "--workers", "8")
    assert a["report"] == b["report"]


@pytest.mark.parametrize("cmd", ["count", "estimate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused(tmp_path, capsys, cmd, workers):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    extra = ["--p", "1/2", "--samples", "10"] if cmd == "estimate" else []
    code, out, err = run(capsys, cmd, str(f), *extra, f"--workers={workers}")
    assert code == 2
    assert out == "" and err == f"error: {cmd} needs --workers >= 1, got {workers}\n"


# -- estimate ----------------------------------------------------------------


def test_estimate_octahedron(tmp_path, capsys):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    payload = run_json(
        capsys, "estimate", str(f), "--p", "1/2", "--samples", "20000",
        "--seed", "7",
    )
    rep = payload["report"]
    num, den = rep["p_hat"].split("/")
    p_hat = int(num) / int(den)
    se = sqrt((15 / 32) * (17 / 32) / 20000)
    assert abs(p_hat - 15 / 32) <= 4 * se
    assert rep["undecided_fraction"] == "0/1"


def test_estimate_repeat_byte_identical(tmp_path, capsys):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    argv = ["estimate", str(f), "--p", "1/2", "--samples", "5000", "--seed", "3"]
    a = run_json(capsys, *argv)
    b = run_json(capsys, *argv)
    assert _strip_wall(a) == _strip_wall(b)


def test_estimate_worker_invariance(tmp_path, capsys):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    base = ["estimate", str(f), "--p", "1/2", "--samples", "5000", "--seed", "3"]
    a = run_json(capsys, *base, "--workers", "1")
    b = run_json(capsys, *base, "--workers", "8")
    assert a["report"] == b["report"]


def test_estimate_p_one_cycle(tmp_path, capsys):
    f = tmp_path / "c5.g6"
    f.write_text(to_graph6(Graph.cycle(5)) + "\n")
    payload = run_json(capsys, "estimate", str(f), "--p", "1", "--samples", "500")
    assert payload["report"]["p_hat"] == "1/1"


def test_estimate_invalid_p(tmp_path, capsys):
    f = tmp_path / "c5.g6"
    f.write_text(to_graph6(Graph.cycle(5)) + "\n")
    for bad in ("3/2", "-1/10", "junk"):
        # attached form so argparse doesn't mistake a leading '-' for a flag
        code, _, _ = run(capsys, "estimate", str(f), f"--p={bad}", "--samples", "10")
        assert code == 2, bad


def test_estimate_gn_decider(tmp_path, capsys):
    eg = build_extremal(4, [5])
    f = tmp_path / "m4.g6"
    f.write_text(to_graph6(eg.graph) + "\n")
    base = [str(f), "--p", "1/2", "--samples", "4000", "--seed", "1"]
    gn = run_json(
        capsys, "estimate", *base, "--decider", "gn", "--n", "4", "--cycles", "5"
    )
    exact = run_json(capsys, "estimate", *base, "--decider", "exact")
    assert gn["report"]["p_hat"] == exact["report"]["p_hat"]


# -- analyze -----------------------------------------------------------------


def test_analyze_two_cliques(tmp_path, capsys):
    f = tmp_path / "tc.g6"
    f.write_text(to_graph6(planted_two_cliques(28, 0)) + "\n")
    payload = run_json(capsys, "analyze", str(f), "--seed", "0")
    rep = payload["report"]
    assert rep["case"] == "two_cliques"
    assert len(rep["set_a"]) == 14


def test_analyze_precondition(tmp_path, capsys):
    f = tmp_path / "c8.g6"
    f.write_text(to_graph6(Graph.cycle(8)) + "\n")
    code, _, _ = run(capsys, "analyze", str(f))
    assert code == 2


# -- verify ------------------------------------------------------------------


def test_verify_bindiff(capsys):
    payload = run_json(capsys, "verify", "bindiff")
    assert payload["report"]["all_pass"] is True
    assert all(c["pass"] for c in payload["report"]["checks"])


def test_verify_calculus(capsys):
    payload = run_json(capsys, "verify", "calculus")
    assert payload["report"]["all_pass"] is True
    names = {c["name"] for c in payload["report"]["checks"]}
    assert "g_at_4_exact_zero" in names


def test_verify_gncriterion_n4(capsys):
    payload = run_json(capsys, "verify", "gncriterion", "--n", "4")
    assert payload["report"]["all_pass"] is True


def test_verify_gncriterion_refuses_past_the_exact_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "gncriterion", "--n", "11")
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert "budget" in err and out == ""


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_verify_gncriterion_rejects_small_n(capsys, n):
    code, out, err = run(capsys, "verify", "gncriterion", f"--n={n}")
    assert code == 2
    assert out == "" and "--n >= 2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pn", "--n-list", "64,abc"], "bad --n-list '64,abc'"),
        (["pn", "--n-list", ","], "bad --n-list ','"),
        (["fnsecond", "--n-list", "x"], "bad --n-list 'x'"),
        (["builders", "--count", "0"], "builders needs --count >= 1, got 0"),
        (["chernoff", "--n-max", "0"], "chernoff needs --n-max >= 1, got 0"),
        (["balancedcut", "--instances", "0"], "balancedcut needs --instances >= 1, got 0"),
        (["balancedcut", "--cuts", "-1"], "balancedcut needs --cuts >= 1, got -1"),
    ],
    ids=["pn-word", "pn-empty", "fnsecond-word", "builders-0", "chernoff-0",
         "balancedcut-instances-0", "balancedcut-cuts-negative"],
)
def test_verify_rejects_malformed_or_empty_input(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_cli_import_leaves_the_process_pool_unloaded():
    code = (
        "import sys, cycsets.cli\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ)
    src = str(Path(cycsets.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


_ESTIMATE = ["estimate", "OCTA", "--p", "1/2", "--samples", "50"]


@pytest.mark.parametrize(
    "argv, modules, numpy_loaded",
    [
        (["count", "OCTA"], {"bitgraph", "counting", "errors", "subsetdp"}, False),
        (["verify", "calculus"], {"errors", "numerics"}, False),
        (_ESTIMATE + ["--decider", "auto"],
         {"bitgraph", "counting", "errors", "hamilton", "sampling", "subsetdp"}, True),
        (_ESTIMATE + ["--decider", "gn", "--n", "3"],
         {"bitgraph", "counting", "errors", "families", "sampling", "subsetdp"}, True),
        (["verify", "gncriterion", "--n", "3"],
         {"bitgraph", "counting", "errors", "families", "subsetdp"}, False),
    ],
    ids=["count", "verify-calculus", "estimate-auto", "estimate-gn", "verify-gncriterion"],
)
def test_command_loads_only_its_modules(tmp_path, capsys, argv, modules, numpy_loaded):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    argv = [str(path) if a == "OCTA" else a for a in argv]
    code = (
        "import json, sys, runpy\n"
        f"sys.argv = ['cycsets', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('cycsets.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cycsets.'))\n"
        "print(json.dumps([loaded, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    src = str(Path(cycsets.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"] == run_json(capsys, *argv)["report"]
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert loaded == [sorted("cycsets." + m for m in modules), numpy_loaded]


def test_entry_runs_with_one_blas_thread(tmp_path, capsys, monkeypatch):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(sys, "argv", ["cycsets", "count", str(path)])
    assert cycsets.cli.entry() == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert json.loads(capsys.readouterr().out)["report"]["cyclic_count"] == 30
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert cycsets.cli.entry() == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_main_leaves_the_environment_alone(tmp_path, capsys, monkeypatch):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["count", str(path)]) == 0
    assert dict(os.environ) == before


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc thread list")
def test_cli_process_starts_no_blas_workers(tmp_path):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    code = (
        "import os, sys, runpy\n"
        f"sys.argv = ['cycsets', 'estimate', {str(path)!r}, '--p', '1/2', '--samples', '50']\n"
        "try:\n"
        "    runpy.run_module('cycsets.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cycsets.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "1"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    import cycsets.cli as cli

    def failing(args):
        return [{"name": "stub", "pass": False, "detail": "forced"}]

    monkeypatch.setitem(cli._SUITES, "bindiff", failing)
    code, out, _ = run(capsys, "verify", "bindiff")
    assert code == 4
    assert json.loads(out)["report"]["all_pass"] is False


# -- curve -------------------------------------------------------------------


def test_curve_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    code, _, err = run(
        capsys, "curve", "--points", "50", "--out", str(csv_path),
        "--svg", str(svg_path),
    )
    assert code == 0, err
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "alpha,f_alpha,is_extremum"
    assert len(lines) == 1 + 50 + 3
    flags = [line.split(",")[2] for line in lines[1:]]
    assert flags.count("1") == 3
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(polylines) == 1
    assert len(circles) == 3


def test_curve_stdout(capsys):
    code, out, _ = run(capsys, "curve", "--points", "10")
    assert code == 0
    assert out.startswith("alpha,f_alpha,is_extremum\n")
    assert len(out.strip().split("\n")) == 14


def test_curve_bad_range(capsys):
    assert run(capsys, "curve", "--alpha-min", "5", "--alpha-max", "1")[0] == 2
    assert run(capsys, "curve", "--points", "1")[0] == 2


# -- manifests ---------------------------------------------------------------


def test_manifest_fields_and_digest(tmp_path, capsys):
    import hashlib

    f = tmp_path / "k4.g6"
    f.write_text(to_graph6(Graph.complete(4)) + "\n")
    payload = run_json(capsys, "count", str(f), "--workers", "2")
    man = payload["manifest"]
    assert man["subcommand"] == "count"
    assert man["workers"] == 2
    assert str(f) in " ".join(man["argv"])
    assert isinstance(man["wall_time_s"], float)
    digest = hashlib.sha256(f.read_bytes()).hexdigest()
    assert digest in man["input_digests"].values()
    from cycsets import __version__

    assert man["version"] == __version__
