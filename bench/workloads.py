"""The four benchmark workloads.

Each workload is built from the run seed by a setup function and yields
batches of operations.  An operation is one call into the package (or one
`cycsets` subprocess) plus a correctness gate on its result.  The same
operation objects serve the untraced measurement and the traced run; the
traced run additionally runs per-workload probes that time single layers
from outside the package.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from pathlib import Path
from typing import Callable

from cycsets import cli
from cycsets.analysis import random_regular_graph
from cycsets.bitgraph import Graph, VertexSet, from_graph6, to_graph6
from cycsets.counting import cyc_count_exact, estimate_h, p_exact_extremal, p_exact_knn
from cycsets.families import build_extremal, build_knn
from cycsets.hamilton import (
    decide_hamiltonian_auto,
    find_ham_cycle_rotation,
    gn_criterion,
    ham_cycle_near_bipartite,
    ham_cycle_two_cliques,
    ham_path_bipartite,
    ham_path_dirac,
)
from cycsets.instances import (
    bipartite_instance,
    dirac_instance,
    near_bipartite_instance,
    two_cliques_instance,
)
from cycsets.sampling import retention_mask, stream_base

from tracing import Tracer

# A `call(name, layer, fn, **attrs)` runs fn(); the traced run wraps it in a span.
Call = Callable[..., object]


def plain_call(name: str, layer: str, fn, **attrs):
    return fn()


def traced_call(tracer: Tracer) -> Call:
    def call(name: str, layer: str, fn, **attrs):
        with tracer.span(name, layer, **attrs):
            return fn()
    return call


@dataclass
class Op:
    """One timed call and the gate that checks its result."""

    name: str  # span name: <module>.<public function>
    layer: str
    fn: Callable[[Call], object]  # the timed body; inner package calls go through `call`
    check: Callable[[object, Call], bool]  # may call the package via `call`
    work: int  # units counted by work_per_s
    decisions: int = 1  # answers the call gives (subsets, samples, ...)
    undecided: Callable[[object], int] = lambda result: 0
    attrs: dict = field(default_factory=dict)


@dataclass
class Workload:
    unit: str  # what one unit of `work` is
    batch: Callable[[int], list[Op]]  # the ops of batch b
    warmup: list[Op]
    probe: Callable[[Tracer, list[Op], list[object]], dict]
    close: Callable[[], None] = lambda: None
    info: dict = field(default_factory=dict)


def derive_seed(*parts) -> int:
    """A 62-bit seed that depends only on `parts`."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 2


# ---------------------------------------------------------------------------
# count_exact: the anchored reach-set DP on four m = 18 graphs
# ---------------------------------------------------------------------------


def setup_count_exact(seed: int, root: Path) -> Workload:
    m = 18
    graphs = [
        ("extremal[10]", build_extremal(9, [10]).graph, p_exact_extremal(9, [10])),
        ("extremal[3,3,4]", build_extremal(9, [3, 3, 4]).graph,
         p_exact_extremal(9, [3, 3, 4])),
        ("K9,9", build_knn(9), p_exact_knn(9)),
        ("random10reg", random_regular_graph(m, 10, seed=seed), None),
    ]
    seen: dict[str, int] = {}  # first count of the graph with no closed form

    def op(label, g, p):
        def check(rep, call):
            if sum(rep.per_size) != rep.cyclic_count or rep.total_subsets != 1 << m:
                return False
            if p is not None:
                return rep.cyclic_count == p * (1 << m)
            return seen.setdefault(label, rep.cyclic_count) == rep.cyclic_count
        return Op("counting.cyc_count_exact", "counting",
                  lambda call: cyc_count_exact(g, workers=1), check,
                  work=1 << m, decisions=1 << m,
                  attrs={"label": label, "workers": 1, "subsets": 1 << m})

    ops = [op(*x) for x in graphs]

    def probe(tracer: Tracer, batch: list[Op], results: list[object]) -> dict:
        # workers=2 on the random regular graph, against its workers=1 call
        label, g, _ = graphs[-1]
        with tracer.span("counting.cyc_count_exact", "counting",
                         label=label, workers=2, subsets=1 << m):
            rep2 = cyc_count_exact(g, workers=2)
        return {"pool_ok": rep2 == results[-1]}

    return Workload("subsets", lambda b: ops, [ops[2]], probe,
                    info={"graphs": [x[0] for x in graphs], "m": m})


# ---------------------------------------------------------------------------
# estimate_auto: Monte Carlo with the tiered Hamiltonicity decider
# ---------------------------------------------------------------------------

EST_N, EST_CYCLES = 10, [11]  # extremal member on m = 20 vertices
EST_SAMPLES = 200  # samples per estimate_h call
EST_CALLS = 4  # calls per batch
AUTO_DP_DIRECT = 16  # decide_hamiltonian_auto sends scopes this small straight to the DP
LARGE_SCOPES = 16  # larger scopes the traced run decides for the rotation metrics


def setup_estimate_auto(seed: int, root: Path) -> Workload:
    eg = build_extremal(EST_N, EST_CYCLES)
    g = eg.graph
    half = Fraction(1, 2)

    def op(est_seed: int, samples: int) -> Op:
        def check(rep, call):
            ref = call("counting.estimate_h", "counting",
                       lambda: estimate_h(g, half, samples, est_seed, decider="gn", eg=eg),
                       decider="gn")
            return rep.successes == ref.successes and rep.undecided_fraction == 0
        return Op("counting.estimate_h", "counting",
                  lambda call: estimate_h(g, half, samples, est_seed, decider="auto"),
                  check, work=samples, decisions=samples,
                  undecided=lambda rep: int(rep.undecided_fraction * samples),
                  attrs={"decider": "auto", "seed": est_seed, "samples": samples})

    def batch(b: int) -> list[Op]:
        return [op(derive_seed(seed, "estimate", b, j), EST_SAMPLES)
                for j in range(EST_CALLS)]

    def decide(tracer: Tracer, est_seed: int, i: int, mask: int, phase: str):
        """The auto decision estimate_h makes for sample i, inside a span."""
        scope = VertexSet(mask, g.m)
        engine_seed = int(stream_base(est_seed, i) & 0x3FFFFFFF)
        with tracer.span("hamilton.decide_hamiltonian_auto", "hamilton",
                         scope=scope.size, phase=phase) as rec:
            dec = decide_hamiltonian_auto(g, scope, seed=engine_seed)
        rec.update(method=dec.method, status=dec.status, work=dec.work)
        return scope, engine_seed, dec

    def probe(tracer: Tracer, ops: list[Op], results: list[object]) -> dict:
        """Replay every sample of the batch (mask, then the auto decider),
        then decide LARGE_SCOPES further samples of more than AUTO_DP_DIRECT
        vertices, drawn from the same stream, and re-run rotation wherever
        auto fell through to the DP."""
        m = g.m
        successes = 0
        for o in ops:
            for i in range(o.attrs["samples"]):
                with tracer.span("sampling.retention_mask", "sampling", m=m):
                    mask = retention_mask(o.attrs["seed"], i, m, 1, 2)
                _, _, dec = decide(tracer, o.attrs["seed"], i, mask, "batch")
                successes += dec.status == "hamiltonian"
        est_seed = ops[0].attrs["seed"]
        i = ops[0].attrs["samples"]
        rotation_agrees = True
        for _ in range(LARGE_SCOPES):
            with tracer.span("sampling.draw_large_scope", "sampling", m=m):
                while (mask := retention_mask(est_seed, i, m, 1, 2)).bit_count() <= AUTO_DP_DIRECT:
                    i += 1
            scope, engine_seed, dec = decide(tracer, est_seed, i, mask, "large")
            if dec.method == "dp":
                with tracer.span("hamilton.find_ham_cycle_rotation", "hamilton",
                                 scope=scope.size):
                    rot = find_ham_cycle_rotation(g, scope, seed=engine_seed)
                rotation_agrees &= rot.status == "unknown"
            i += 1
        reported = sum(r.successes for r in results)
        return {"replay_successes": successes, "report_successes": reported,
                "replay_ok": successes == reported, "rotation_rerun_ok": rotation_agrees}

    warm = [op(derive_seed(seed, "estimate", "warmup"), 20)]
    return Workload("samples", batch, warm, probe,
                    info={"n": EST_N, "cycles": EST_CYCLES, "m": g.m, "p": "1/2",
                          "samples_per_call": EST_SAMPLES, "calls_per_batch": EST_CALLS})


# ---------------------------------------------------------------------------
# certify_dense: the four constructive builders on dense instances
# ---------------------------------------------------------------------------

def setup_certify_dense(seed: int, root: Path) -> Workload:
    """One op certifies one instance set: four builder calls, four certificates.

    Builder calls differ by a factor of 25 in cost, so the median of single
    calls would sit between two builders; a round of all four has one mode.
    """
    s = derive_seed(seed, "certify") & 0xFFFFFFFF
    g1, cut1 = two_cliques_instance(600, s)
    g2, cut2, forest = near_bipartite_instance(600, s)
    g3, a3, b3 = dirac_instance(200, s)
    g4, left, right, a4, b4 = bipartite_instance(200, s)
    builders = [
        ("hamilton.ham_cycle_two_cliques", g1,
         lambda: ham_cycle_two_cliques(g1, cut1, seed=s), None),
        ("hamilton.ham_cycle_near_bipartite", g2,
         lambda: ham_cycle_near_bipartite(g2, cut2, forest, seed=s), None),
        ("hamilton.ham_path_dirac", g3,
         lambda: ham_path_dirac(g3, a3, b3, seed=s), (a3, b3)),
        ("hamilton.ham_path_bipartite", g4,
         lambda: ham_path_bipartite(g4, left, right, a4, b4, seed=s), (a4, b4)),
    ]

    def round_(call):
        return [call(name, "hamilton", build, m=g.m) for name, g, build, _ in builders]

    def check(certs, call):
        for cert, (_, g, _, ends) in zip(certs, builders):
            cert.validate(g, g.full_mask())  # raises VerificationError if bad
            if ends is not None and (cert.order[0], cert.order[-1]) != ends:
                return False
        return True

    ops = [Op("certify_round", "bench", round_, check, work=len(builders),
              decisions=len(builders))]

    def probe(tracer: Tracer, batch: list[Op], results: list[object]) -> dict:
        ok = True
        for _, g, _, _ in builders:
            with tracer.span("bitgraph.Graph", "bitgraph", m=g.m):
                again = Graph(g.m, g.rows)
            ok &= again == g
        return {"revalidate_ok": ok}

    return Workload("certificates", lambda b: ops, ops, probe,
                    info={"instance_seed": s})


# ---------------------------------------------------------------------------
# cli_session: the `cycsets` command as a user runs it
# ---------------------------------------------------------------------------

OCTA_CYCLIC = 30  # cyclic subsets of the octahedron
CLI_OCTA_SAMPLES = 20000
CLI_M600_SAMPLES = 1000
SUBPROCESS_TIMEOUT = 60


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_cli(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "cycsets.cli", *argv],
                          cwd=root, env=cli_env(root), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)


def _within(report: dict, exact: Fraction, k: float) -> bool:
    n = report["samples"]
    se = sqrt(float(exact) * (1 - float(exact)) / n)
    return abs(report["p_hat_float"] - float(exact)) <= k * se


def setup_cli_session(seed: int, root: Path) -> Workload:
    (root / ".bench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=root / ".bench_out"))
    octa = build_extremal(3, [4]).graph
    k66 = build_knn(6)
    m600 = build_extremal(300, [301]).graph
    files = {}
    for name, g in (("octa", octa), ("k66", k66), ("m600", m600)):
        path = tmp / f"{name}.g6"
        path.write_text(to_graph6(g) + "\n")
        files[name] = (str(path), g)
    p600 = p_exact_extremal(300, [301])
    pk66 = p_exact_knn(6)

    def script(b: int) -> list[tuple[list[str], Callable[[dict], bool]]]:
        s = derive_seed(seed, "cli", b) & 0xFFFFFFFF
        return [
            (["count", files["octa"][0]],
             lambda r: r["cyclic_count"] == OCTA_CYCLIC),
            (["count", files["k66"][0]],
             lambda r: Fraction(r["p_exact"]) == pk66
             and r["cyclic_count"] == pk66 * (1 << 12)),
            (["estimate", files["octa"][0], "--p", "1/2", "--samples",
              str(CLI_OCTA_SAMPLES), "--seed", str(s)],
             lambda r: _within(r, Fraction(15, 32), 4)
             and Fraction(r["undecided_fraction"]) == 0),
            (["estimate", files["m600"][0], "--p", "1/2", "--samples",
              str(CLI_M600_SAMPLES), "--seed", str(s), "--decider", "gn",
              "--n", "300"],
             lambda r: _within(r, p600, 5) and Fraction(r["undecided_fraction"]) == 0),
            (["verify", "calculus"],
             lambda r: r["all_pass"] is True),
        ]

    def op(argv, want) -> Op:
        def check(proc, call):
            return proc.returncode == 0 and want(json.loads(proc.stdout)["report"])

        def undecided(proc):
            rep = json.loads(proc.stdout)["report"]
            if "undecided_fraction" not in rep:
                return 0
            return int(Fraction(rep["undecided_fraction"]) * rep["samples"])
        decisions = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 1
        label = " ".join([argv[0]] + [Path(a).stem for a in argv[1:2]])
        return Op("cli.subprocess", "cli", lambda call: run_cli(root, argv), check,
                  work=1, decisions=decisions, undecided=undecided,
                  attrs={"argv": argv, "label": label})

    def batch(b: int) -> list[Op]:
        return [op(argv, want) for argv, want in script(b)]

    def probe(tracer: Tracer, ops: list[Op], results: list[object]) -> dict:
        ok = True
        env = cli_env(root)
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import cycsets.cli")):
            for _ in range(3):
                with tracer.span(name, "cli"):
                    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                          capture_output=True, timeout=SUBPROCESS_TIMEOUT)
                ok &= proc.returncode == 0
        # the same script in process: cli.main time per call
        for o, proc in zip(ops, results):
            out = io.StringIO()
            with tracer.span("cli.main", "cli"), redirect_stdout(out):
                code = cli.main(list(o.attrs["argv"]))
            ok &= code == 0 and (json.loads(out.getvalue())["report"]
                                 == json.loads(proc.stdout)["report"])
        # graph6 decoding of every input file
        for path, g in files.values():
            text = Path(path).read_text().strip()
            with tracer.span("bitgraph.from_graph6", "bitgraph", m=g.m):
                decoded = from_graph6(text)
            ok &= decoded == g
        # the m = 600 estimate call, replicated: labelled member, masks, criterion
        with tracer.span("families.build_extremal", "families", n=300):
            eg = build_extremal(300, [301])
        ok &= eg.graph == m600
        argv = ops[3].attrs["argv"]
        est_seed = int(argv[argv.index("--seed") + 1])
        successes = 0
        for i in range(CLI_M600_SAMPLES):
            with tracer.span("sampling.retention_mask", "sampling", m=m600.m):
                mask = retention_mask(est_seed, i, m600.m, 1, 2)
            with tracer.span("hamilton.gn_criterion", "hamilton"):
                successes += gn_criterion(eg, VertexSet(mask, m600.m))
        ok &= successes == json.loads(results[3].stdout)["report"]["successes"]
        return {"replica_ok": ok}

    return Workload("calls", batch, [], probe,
                    close=lambda: shutil.rmtree(tmp, ignore_errors=True),
                    info={"octa_samples": CLI_OCTA_SAMPLES,
                          "m600_samples": CLI_M600_SAMPLES})


SETUPS = {
    "count_exact": setup_count_exact,
    "estimate_auto": setup_estimate_auto,
    "certify_dense": setup_certify_dense,
    "cli_session": setup_cli_session,
}
