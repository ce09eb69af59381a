"""Command-line interface: subcommands, exit codes, determinism, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import sqrt
from pathlib import Path

import pytest

from conftest import complete, cycle, isomorphic, planted_two_cliques

import cycsets
from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import from_graph6, to_graph6
from cycsets.cli import main
from cycsets.counting import p_exact_knn
from cycsets import families
from cycsets.families import _cycle_partitions, build_competitor, build_extremal, build_knn
from cycsets.families import gn_criterion_mask
from cycsets.hamilton import HamPathCert
from cycsets.subsetdp import TABLE_MAX_BYTES, Quotient


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
    assert isomorphic(g, cycle(4))


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
    f.write_text(to_graph6(complete(4)) + "\n")
    payload = run_json(capsys, "count", str(f))
    rep = payload["report"]
    assert rep["cyclic_count"] == 5
    assert rep["p_exact"] == "5/16"
    assert payload["manifest"]["input_digests"]


def test_count_stdin(capsys, monkeypatch):
    import io

    data = (to_graph6(complete(4)) + "\n").encode("ascii")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run(capsys, "count", "-")
    assert code == 0
    assert json.loads(out)["report"]["cyclic_count"] == 5


def test_count_within_the_exact_budget(tmp_path, capsys):
    # m = 22 and m = 26: K_{n,n} is two twin classes, well within the DP's bytes
    for n in (11, 13):
        f = tmp_path / "knn.g6"
        f.write_text(to_graph6(build_knn(n)) + "\n")
        rep = run_json(capsys, "count", str(f))["report"]
        assert Fraction(rep["p_exact"]) == p_exact_knn(n)


def test_count_budget_exit(tmp_path, capsys):
    # a twin-free graph past 24 vertices is refused before the DP allocates
    graphs = (complete(25), random_regular_graph(26, 13, seed=1), build_extremal(300, [301]).graph)
    for g in graphs:
        f = tmp_path / "big.g6"
        f.write_text(to_graph6(g) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "count", str(f))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith(f"budget exceeded: subset-DP budget: {g.m - 1} free vertices in ")
        assert err.endswith(" bytes > 54806892\n") and err.count("\n") == 1
        assert len(err) < 200
    assert "would take over 2^" in err  # m = 600: no 90-digit byte count


def test_estimate_exact_decider_past_24_vertices(tmp_path, capsys):
    # every sample keeps all of K_{13,13}: the exact decider's whole-graph scope
    f = tmp_path / "k1313.g6"
    f.write_text(to_graph6(build_knn(13)) + "\n")
    rep = run_json(capsys, "estimate", str(f), "--p", "1", "--samples", "3", "--decider", "exact")
    assert rep["report"]["successes"] == 3


def test_count_takes_only_an_input_and_out(capsys):
    for flag in ("--force", "--workers=2"):
        with pytest.raises(SystemExit) as exc:
            main(["count", "octa.g6", flag])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cycsets count [-h] [--out OUT] input\n")


def test_count_help_states_the_kernel_budget(capsys):
    # the parser cannot import subsetdp, so the help text spells the budget out
    with pytest.raises(SystemExit):
        main(["count", "--help"])
    assert f" {TABLE_MAX_BYTES:,} bytes" in capsys.readouterr().out


def test_count_parse_errors(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert run(capsys, "count", str(empty))[0] == 2
    junk = tmp_path / "junk.g6"
    junk.write_text("\x01\x02 nonsense\n")
    assert run(capsys, "count", str(junk))[0] == 2


@pytest.mark.parametrize("cmd", ["estimate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused(tmp_path, capsys, cmd, workers):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    extra = ["--p", "1/2", "--samples", "10"]
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
    f.write_text(to_graph6(cycle(5)) + "\n")
    payload = run_json(capsys, "estimate", str(f), "--p", "1", "--samples", "500")
    assert payload["report"]["p_hat"] == "1/1"


def test_estimate_invalid_p(tmp_path, capsys):
    f = tmp_path / "c5.g6"
    f.write_text(to_graph6(cycle(5)) + "\n")
    for bad in ("3/2", "-1/10", "junk"):
        # attached form so argparse doesn't mistake a leading '-' for a flag
        code, _, _ = run(capsys, "estimate", str(f), f"--p={bad}", "--samples", "10")
        assert code == 2, bad


@pytest.mark.parametrize("seed", ["-1", str(1 << 64), str((1 << 64) + 7)])
def test_estimate_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # the streams key on 64 bits, so such a seed would alias one inside
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    code, out, err = run(capsys, "estimate", str(f), "--p", "1/2", "--samples", "100",
                         f"--seed={seed}")
    assert code == 2
    assert out == "" and err == f"error: need 0 <= seed < 2^64, got {seed}\n"


def test_estimate_takes_the_largest_64_bit_seed(tmp_path, capsys):
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    top = str((1 << 64) - 1)
    rep = run_json(capsys, "estimate", str(f), "--p", "1/2", "--samples", "100",
                   "--seed", top)["report"]
    assert rep["seed"] == (1 << 64) - 1 and rep["samples"] == 100


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
    f.write_text(to_graph6(cycle(8)) + "\n")
    code, _, _ = run(capsys, "analyze", str(f))
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_analyze_refuses_fewer_than_one_sample(tmp_path, capsys, samples):
    # m = 20 takes the sampled path, where no pairs would make a vacuous pass
    f = tmp_path / "m20.g6"
    f.write_text(to_graph6(build_extremal(10, [11]).graph) + "\n")
    code, out, err = run(capsys, "analyze", str(f), f"--samples={samples}")
    assert code == 2
    assert out == "" and err == f"error: need samples >= 1, got {samples}\n"


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_seeded_commands_refuse_a_seed_outside_64_bits(tmp_path, capsys, command, seed):
    # as for estimate: the streams key on 64 bits, so StreamRng(-1, i) drew
    # the stream of 2^64 - 1, and 2^64 that of 0
    f = tmp_path / "octa.g6"
    f.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    argv = [str(f)] if command == "analyze" else ["balancedcut", "--instances", "1"]
    code, out, err = run(capsys, command, *argv, f"--seed={seed}")
    assert code == 2
    assert out == "" and err == f"error: need 0 <= seed < 2^64, got {seed}\n"


@pytest.mark.parametrize(
    "eps, message",
    [
        ("abc", "bad --eps 'abc'"),
        ("1/0", "bad --eps '1/0'"),
        ("0", "need 0 < eps <= 1/320"),
        ("1/319", "need 0 < eps <= 1/320"),
    ],
    ids=["word", "zero-denominator", "zero", "above-1/320"],
)
def test_analyze_rejects_a_malformed_or_out_of_range_eps(tmp_path, capsys, eps, message):
    f = tmp_path / "tc.g6"
    f.write_text(to_graph6(planted_two_cliques(28, 0)) + "\n")
    code, out, err = run(capsys, "analyze", str(f), "--eps", eps)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


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


def test_verify_gncriterion_reads_the_kernel_that_counts(capsys, monkeypatch):
    # one cyclic state dropped from every closing set over twin classes: a
    # fault of the layout that counts and decides, which a suite run on
    # per-mask states would not see
    closing = Quotient.closing

    def faulty(q):
        x = closing(q)
        return x ^ (x & -x) if q.size >> q.singles > 1 else x

    monkeypatch.setattr(Quotient, "closing", faulty)
    code, out, err = run(capsys, "verify", "gncriterion", "--n", "4")
    assert code != 0
    [check] = json.loads(out)["report"]["checks"]
    assert check["pass"] is False and not check["detail"].endswith(" 0 disagreements")


def test_verify_gncriterion_builds_one_every_start_kernel_per_member(capsys, monkeypatch):
    # the kernel `count` runs on the whole member, not one per anchor
    seeds = []
    init = Quotient.__init__

    def recording(q, adj, seed):
        seeds.append(seed)
        init(q, adj, seed)

    monkeypatch.setattr(Quotient, "__init__", recording)
    checks = run_json(capsys, "verify", "gncriterion", "--n", "5")["report"]["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("type_6", True), ("type_3_3", True)]
    assert seeds == [None, None]


def test_verify_gncriterion_fails_on_one_flipped_state(capsys, monkeypatch):
    # the criterion wrong on one representative only: {0, 1, 2} and the
    # lowest vertex of B, on the member [3, 3]
    def flipped(eg, smask):
        wrong = eg.cycles == ((0, 1, 2), (3, 4, 5)) and smask == 0b1000111
        return gn_criterion_mask(eg, smask) != wrong

    monkeypatch.setattr(families, "gn_criterion_mask", flipped)
    code, out, err = run(capsys, "verify", "gncriterion", "--n", "5")
    assert code == 4
    checks = json.loads(out)["report"]["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("type_6", True), ("type_3_3", False)]
    assert checks[1]["detail"].endswith(" 1 disagreements")


def test_gn_criterion_answers_each_subset_as_its_state():
    # the premise of the suite's one call per state: every subset S of a
    # member with n <= 7 gets the answer of its state's representative, the
    # lowest d_j members of each class C_j.  S's state is the sum of its
    # vertices' digit weights, read one byte of S at a time
    checked = 0
    for n in range(2, 8):
        for part in _cycle_partitions(n + 1):
            eg = build_extremal(n, part)
            m = eg.graph.m
            q = Quotient(eg.graph.rows, None)
            radix = [len(c) + 1 for c in q.classes]
            reps = [sum(1 << w for j, c in enumerate(q.classes)
                        for w in c[:x // q.weight[j] % radix[j]])
                    for x in range(q.size)]
            weight = [q.weight[j] for j in q.digit]
            low, *high = [
                [sum(weight[i + w] for w in range(8) if b >> w & 1)
                 for b in range(1 << min(8, m - i))]
                for i in range(0, m, 8)
            ]
            assert all(sum(weight[v] for v in range(m) if r >> v & 1) == x
                       for x, r in enumerate(reps))
            answers = [gn_criterion_mask(eg, r) for r in reps]
            for hi in range(1 << max(m - 8, 0)):
                base = sum(t[hi >> 8 * i & 255] for i, t in enumerate(high))
                for lo, x in enumerate(low):
                    s = hi << 8 | lo
                    assert gn_criterion_mask(eg, s) == answers[base + x], (part, s)
                    checked += 1
    assert checked == 2**4 + 2**6 + 2**8 + 2 * 2**10 + 2 * 2**12 + 3 * 2**14


def test_verify_gncriterion_refuses_past_the_exact_budget(capsys, monkeypatch):
    # n = 19's first member needs 119,538,900 bytes; no member is listed or built
    def never(*args):
        raise AssertionError("a member was listed or built")

    monkeypatch.setattr(families, "_cycle_partitions", never)
    monkeypatch.setattr(families, "build_extremal", never)
    for n in ("19", "1000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "gncriterion", "--n", n)
        assert code == 3
        assert time.perf_counter() - start < 1.0
        assert "budget" in err and out == ""


@pytest.mark.parametrize("n", ["11", "12"])
def test_verify_gncriterion_passes_past_n10(capsys, n):
    checks = run_json(capsys, "verify", "gncriterion", "--n", n)["report"]["checks"]
    names = [f"type_{'_'.join(map(str, part))}" for part in _cycle_partitions(int(n) + 1)]
    assert [c["name"] for c in checks] == names and all(c["pass"] for c in checks)
    assert all(c["detail"].endswith(" 0 disagreements") for c in checks)


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
        (["pn", "--n-list", ""], "bad --n-list ''"),
        (["fnsecond", "--n-list", "x"], "bad --n-list 'x'"),
        (["fnsecond", "--n-list", ""], "bad --n-list ''"),
        (["builders", "--count", "0"], "builders needs --count >= 1, got 0"),
        (["chernoff", "--n-max", "0"], "chernoff needs --n-max >= 1, got 0"),
        (["balancedcut", "--instances", "0"], "balancedcut needs --instances >= 1, got 0"),
        (["balancedcut", "--cuts", "-1"], "balancedcut needs --cuts >= 1, got -1"),
    ],
    ids=["pn-word", "pn-empty", "pn-blank", "fnsecond-word", "fnsecond-blank", "builders-0",
         "chernoff-0",
         "balancedcut-instances-0", "balancedcut-cuts-negative"],
)
def test_verify_rejects_malformed_or_empty_input(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def _child_env(env=None) -> dict:
    """This checkout's package on the path and, unless env is given, stdout
    buffered as under a user's shell, so a report left unflushed is lost."""
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env = dict(env)
    src = str(Path(cycsets.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's package importable."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=_child_env(env),
                          text=True, timeout=60, **kwargs)


def test_cli_import_leaves_the_process_pool_unloaded():
    code = (
        "import sys, cycsets.cli\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    proc = _python("-c", code)
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
         {"bitgraph", "errors", "families", "subsetdp"}, False),
        (["analyze", "OCTA"],
         {"analysis", "bitgraph", "errors", "families", "sampling", "structures"}, False),
        (["verify", "builders", "--count", "1"],
         {"bitgraph", "errors", "hamilton", "instances", "sampling", "structures",
          "subsetdp"}, False),
    ],
    ids=["count", "verify-calculus", "estimate-auto", "estimate-gn", "verify-gncriterion",
         "analyze", "verify-builders"],
)
def test_command_loads_only_its_modules(tmp_path, capsys, argv, modules, numpy_loaded):
    # the child imports cycsets.cli and runs entry() in process, since `run`
    # would end it before it reports; hashlib comes only with an input digest
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    argv = [str(path) if a == "OCTA" else a for a in argv]
    code = (
        "import json, sys, cycsets.cli\n"
        f"sys.argv = ['cycsets', *{argv!r}]\n"
        "assert cycsets.cli.entry() == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cycsets.'))\n"
        "print(json.dumps([loaded, 'numpy' in sys.modules, 'hashlib' in sys.modules]),\n"
        "      file=sys.stderr)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"] == run_json(capsys, *argv)["report"]
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    reads_graph = argv[0] != "verify"
    want = sorted("cycsets." + m for m in modules | {"cli"})
    assert loaded == [want, numpy_loaded, reads_graph]


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
        "import os, sys, cycsets.cli\n"
        f"sys.argv = ['cycsets', 'estimate', {str(path)!r}, '--p', '1/2', '--samples', '50']\n"
        "assert cycsets.cli.entry() == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = _python("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "1"


# -- the process: `python -m cycsets.cli` ends through cli.run ----------------


def _cycsets(*argv, **kwargs) -> subprocess.CompletedProcess:
    return _python("-m", "cycsets.cli", *argv, **kwargs)


@pytest.mark.parametrize(
    "graph, argv, want",
    [
        ("octa", ["count", "G"], 0),
        ("octa", ["analyze", "G", "--eps", "abc"], 2),
        ("m600", ["count", "G"], 3),
    ],
    ids=["ok", "precondition", "budget"],
)
def test_process_matches_main(tmp_path, capsys, graph, argv, want):
    g = build_extremal(3, [4]).graph if graph == "octa" else build_extremal(300, [301]).graph
    path = tmp_path / f"{graph}.g6"
    path.write_text(to_graph6(g) + "\n")
    argv = [str(path) if a == "G" else a for a in argv]
    proc = _cycsets(*argv)
    code, out, err = run(capsys, *argv)
    assert proc.returncode == code == want
    assert proc.stderr == err
    if want == 0:
        assert _strip_wall(json.loads(proc.stdout)) == _strip_wall(json.loads(out))
    else:
        assert proc.stdout == out == ""


def test_process_out_file_holds_the_complete_report(tmp_path, capsys):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    out = tmp_path / "count.json"
    proc = _cycsets("count", str(path), "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == "" and proc.stderr == ""
    assert out.read_text().endswith("}\n")
    assert json.loads(out.read_text())["report"] == run_json(capsys, "count", str(path))["report"]


def test_process_estimate_worker_invariance(tmp_path):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    argv = ["estimate", str(path), "--p", "1/2", "--samples", "400", "--seed", "3"]
    one, two = _cycsets(*argv, "--workers", "1"), _cycsets(*argv, "--workers", "2")
    assert one.returncode == two.returncode == 0, two.stderr
    assert json.loads(one.stdout)["report"] == json.loads(two.stdout)["report"]


# -- I/O failures: one error line, no traceback --------------------------------


def test_missing_input_graph_is_a_precondition_failure(tmp_path, capsys):
    missing = str(tmp_path / "absent.g6")
    proc = _cycsets("count", missing)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot read {missing}: No such file or directory\n"
    assert run(capsys, "count", missing) == (2, "", proc.stderr)
    code, _, err = run(capsys, "count", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot read {tmp_path}: ")


def test_out_path_in_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    out = str(tmp_path / "absent" / "count.json")
    proc = _cycsets("count", str(path), "--out", out)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"
    code, _, err = run(capsys, "curve", "--points", "5", "--out", out)
    assert code == 5 and err == proc.stderr


def _stdout_buffering(unbuffered: bool):
    # a buffered stdout fails at the final flush in cli.run, an unbuffered
    # one at the write in main
    return dict(os.environ, PYTHONUNBUFFERED="1") if unbuffered else None


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe(tmp_path, unbuffered):
    path = tmp_path / "octa.g6"
    path.write_text(to_graph6(build_extremal(3, [4]).graph) + "\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cycsets("count", str(path), stdout=write_end,
                        env=_stdout_buffering(unbuffered))
    finally:
        os.close(write_end)
    assert proc.returncode == 5
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "calculus"], ["curve"]],
                         ids=["short-report", "long-report"])
def test_stdout_on_a_full_device(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cycsets(*argv, stdout=full, env=_stdout_buffering(unbuffered))
    assert proc.returncode == 5
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("builder, check", [("ham_path_dirac", "dirac_path_m200"),
                                            ("ham_path_bipartite", "bipartite_path_m200")])
def test_verify_builders_checks_the_ends_of_both_paths(capsys, monkeypatch, builder, check):
    # the path reversed is a valid Hamilton path of the graph, from b to a
    import cycsets.hamilton as hamilton

    build = getattr(hamilton, builder)
    monkeypatch.setattr(hamilton, builder,
                        lambda *args, **kw: HamPathCert(build(*args, **kw).order[::-1]))
    code, out, err = run(capsys, "verify", "builders", "--count", "1")
    assert code == 4
    checks = json.loads(out)["report"]["checks"]
    assert [(c["name"], c["detail"]) for c in checks if not c["pass"]] == [(check, "0/1")]


def test_verify_builders_reports_a_certificate_that_fails(capsys, monkeypatch):
    # a Dirac path that misses its last vertex fails validation; the report
    # still names every check, and only that one fails, with the message
    import cycsets.hamilton as hamilton

    build = hamilton.ham_path_dirac
    monkeypatch.setattr(hamilton, "ham_path_dirac",
                        lambda *args, **kw: HamPathCert(build(*args, **kw).order[:-1]))
    code, out, err = run(capsys, "verify", "builders", "--count", "1")
    assert code == 4
    checks = json.loads(out)["report"]["checks"]
    assert [c["name"] for c in checks] == [
        "two_cliques_m600", "near_bipartite_m600", "dirac_path_m200", "bipartite_path_m200"]
    assert [(c["name"], c["detail"]) for c in checks if not c["pass"]] == [
        ("dirac_path_m200", "0/1 (path certificate does not cover the scope)")]


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
    f.write_text(to_graph6(complete(4)) + "\n")
    payload = run_json(capsys, "count", str(f))
    man = payload["manifest"]
    assert man["subcommand"] == "count"
    assert man["workers"] is None  # counts run in one process
    argv = ["estimate", str(f), "--p", "1/2", "--samples", "10", "--workers", "2"]
    assert run_json(capsys, *argv)["manifest"]["workers"] == 2
    assert str(f) in " ".join(man["argv"])
    assert isinstance(man["wall_time_s"], float)
    digest = hashlib.sha256(f.read_bytes()).hexdigest()
    assert digest in man["input_digests"].values()
    from cycsets import __version__

    assert man["version"] == __version__
