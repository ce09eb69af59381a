"""cycsets benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the named workload is measured for S seconds with
tracing off and the end-to-end metrics are reported.  With `--trace 1` every
workload runs one batch inside spans, followed by its layer probes, and the
per-layer metrics are reported.  The last line of standard output is the
result object; the lines before it hold provenance and details, which are
also written with the spans to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("count_exact", "estimate_auto", "certify_dense", "cli_session")
SETUP_REPS = 3
PROBE_LOOP = 20_000
# Probe time that scaled timings refer to: about the median on the 2-core
# virtual machine the benchmark was written on.  Timings of a run whose probes had
# the median p are reported multiplied by REF_PROBE_MS / p.
REF_PROBE_MS = 1.7


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail: the highest percentile with at least
    ten samples above it, but never below p90.  Runs with fewer than 100
    samples therefore report p90, with fewer than ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    pct = max(90.0, 100.0 * (n - 10) / n)
    return xs[max(math.ceil(pct * n / 100) - 1, 0)], pct


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the shared machine
    runs right now.  On a busy host it varies by a factor of 1.5 within
    minutes, and the package's own timings follow it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for k in range(PROBE_LOOP):
            x += k * k
        times.append(time.perf_counter() - t0)
    return 1000 * median(times)


def git_revision() -> str | None:
    """HEAD of the checkout, read without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_op(op, call, tracer=None) -> tuple[float, object, bool, int]:
    """Time one op, then gate it: (seconds, result, ok, undecided)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.fn(call)
        else:
            tracer.new_op()
            with tracer.span(op.name, op.layer, **op.attrs):
                result = op.fn(call)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None, False, 0
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(result, call))
        undecided = op.undecided(result) if ok else 0
    except Exception:
        traceback.print_exc()
        ok, undecided = False, 0
    if not ok:
        print(f"gate failed: {op.name} {op.attrs}", file=sys.stderr)
    return dt, result, ok, undecided


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.decisions = self.undecided = 0

    def add(self, op, ok: bool, undecided: int) -> None:
        self.attempted += 1
        self.failed += not ok
        self.decisions += op.decisions
        self.undecided += undecided


def measure(w, seconds: float, tally: Tally, plain_call) -> dict:
    """Closed loop, one client: whole batches until `seconds` have passed."""
    for op in w.warmup:
        _, _, ok, und = run_op(op, plain_call)
        tally.add(op, ok, und)
    op_times: list[float] = []
    by_label: dict[str, list[float]] = {}
    batch_times: list[float] = []
    probes: list[float] = []
    work = 0
    start = time.perf_counter()
    b = 0
    while True:
        batch_s = 0.0
        for op in w.batch(b):
            dt, _, ok, und = run_op(op, plain_call)
            probes.append(speed_probe_ms())
            tally.add(op, ok, und)
            op_times.append(dt)
            by_label.setdefault(op.attrs.get("label", op.name), []).append(dt)
            work += op.work
            batch_s += dt
        batch_times.append(batch_s)
        b += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"op_times": op_times, "batch_times": batch_times, "work": work,
            "batches": b, "probe_ms": median(probes), "by_label": by_label}


def end_to_end(name: str, seconds: float, setup_raw_s: float, w, ws) -> tuple[dict, Tally, dict]:
    tally = Tally()
    m = measure(w, seconds, tally, ws.plain_call)
    if name == "cli_session":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # every timing below is scaled to the reference machine speed
    scale = REF_PROBE_MS / m["probe_ms"]
    op_times = [t * scale for t in m["op_times"]]
    tail_s, tail_pct = tail(op_times)
    work_per_s = m["work"] / sum(op_times)
    batch_s = scale * median(m["batch_times"])
    metrics = {
        "setup_s": (setup_raw_s * scale, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_frac": (1 - tally.failed / tally.attempted, "frac"),
        "decided_frac": (1 - tally.undecided / tally.decisions, "frac"),
        "work_per_s": (work_per_s, "1/s"),
        "batch_s": (batch_s, "s"),
        "op_ms_p50": (1000 * median(op_times), "ms"),
        "op_ms_tail": (1000 * tail_s, "ms"),
    }
    # the same figures under the names a workload's own unit suggests
    alias = {
        "count_exact": {"subsets_per_s": work_per_s},
        "estimate_auto": {"samples_per_s": work_per_s,
                          "undecided_frac": tally.undecided / tally.decisions},
        "certify_dense": {"certs_per_s": work_per_s, "round_ms_p50": metrics["op_ms_p50"][0],
                          "round_ms_tail": metrics["op_ms_tail"][0]},
        "cli_session": {"session_s": batch_s, "call_ms_p50": metrics["op_ms_p50"][0],
                        "call_ms_tail": metrics["op_ms_tail"][0]},
    }[name]
    alias["failed_frac"] = tally.failed / tally.attempted
    raw = m["op_times"]
    detail = {
        "work_unit": w.unit, "ops": len(op_times), "batches": m["batches"],
        "tail_percentile": tail_pct, "aliases": alias,
        "speed_probe_ms": m["probe_ms"], "scale": scale,
        "op_ms_p50_by_label": {k: 1000 * scale * median(v) for k, v in m["by_label"].items()},
        "unscaled": {"setup_s": setup_raw_s, "work_per_s": m["work"] / sum(raw),
                     "batch_s": median(m["batch_times"]), "op_ms_p50": 1000 * median(raw),
                     "op_ms_tail": 1000 * tail(raw)[0]},
    }
    return metrics, tally, detail


def per_layer(name: str, workloads: dict, ws) -> tuple[dict, Tally, dict, list]:
    from tracing import Tracer, duration

    tally = Tally()
    tracer = Tracer()
    call = ws.traced_call(tracer)
    # untraced batch of the named workload, the base of trace.overhead_frac
    w = workloads[name]
    for op in w.warmup:
        run_op(op, ws.plain_call)
    t0 = time.perf_counter()
    for op in w.batch(0):
        _, _, ok, und = run_op(op, ws.plain_call)
        tally.add(op, ok, und)
    untraced_s = time.perf_counter() - t0

    roots, batches, probes = {}, {}, {}
    for wname, wl in workloads.items():
        if wname != name:
            for op in wl.warmup:
                run_op(op, ws.plain_call)
        with tracer.span(wname, "bench") as root:
            with tracer.span("batch", "bench") as bspan:
                ops = wl.batch(0)
                results = []
                for op in ops:
                    _, res, ok, und = run_op(op, call, tracer)
                    tally.add(op, ok, und)
                    results.append(res)
            tracer.new_op()
            try:
                probe = wl.probe(tracer, ops, results)
            except Exception:
                traceback.print_exc()
                probe = {"probe_ok": False}
        roots[wname], batches[wname], probes[wname] = root, bspan, probe
        for key, value in probe.items():
            if key.endswith("_ok"):
                tally.attempted += 1
                tally.failed += not value

    total = tracer.total
    auto = tracer.select("hamilton.decide_hamiltonian_auto", phase="batch")
    dp = [s for s in auto if s["method"] == "dp"]
    large = tracer.select("hamilton.decide_hamiltonian_auto", phase="large")
    rot_ham = [s for s in large if s["method"] == "rotation"]
    exact = tracer.select("counting.cyc_count_exact", workers=1,
                          root=batches["count_exact"]["id"])
    rr1 = [s for s in exact if s["label"] == "random10reg"]
    rr2 = tracer.select("counting.cyc_count_exact", workers=2)
    est_s, _ = total("counting.estimate_h", decider="auto")
    auto_s = sum(duration(s) for s in auto)
    replay_mask_s, _ = total("sampling.retention_mask", m=workloads["estimate_auto"].info["m"])
    interp = median([duration(s) for s in tracer.select("cli.interpreter")] or [0.0])
    imp = median([duration(s) for s in tracer.select("cli.import")] or [0.0])
    cli_calls_s = sum(duration(s) for s in tracer.select(
        "cli.subprocess", root=batches["cli_session"]["id"]))
    main_s, _ = total("cli.main")

    def split(method, status):
        sel = [s for s in auto if s["method"] == method and s["status"] == status]
        return sum(duration(s) for s in sel), len(sel)

    dp_ham_s, dp_ham_n = split("dp", "hamiltonian")
    dp_ref_s, dp_ref_n = split("dp", "not_hamiltonian")
    rot_s, rot_n = split("rotation", "hamiltonian")
    decode_s, decode_n = total("bitgraph.from_graph6")
    mask_s, mask_n = total("sampling.retention_mask")
    overhead = (duration(batches[name]) - untraced_s) / untraced_s
    count = "count"
    metrics = {
        "bitgraph.graph6_decode_s": (decode_s, "s"),
        "bitgraph.graph6_decode_calls": (decode_n, count),
        "bitgraph.graph_validate_s": (total("bitgraph.Graph")[0], "s"),
        "hamilton.auto_calls": (len(auto), count),
        "hamilton.auto_s": (auto_s, "s"),
        "hamilton.dp_ham_calls": (dp_ham_n, count),
        "hamilton.dp_ham_s": (dp_ham_s, "s"),
        "hamilton.dp_refuted_calls": (dp_ref_n, count),
        "hamilton.dp_refuted_s": (dp_ref_s, "s"),
        "hamilton.rotation_ham_calls": (rot_n, count),
        "hamilton.rotation_ham_s": (rot_s, "s"),
        "hamilton.dp_work": (sum(s["work"] for s in dp), count),
        "hamilton.dp_max_scope": (max((s["scope"] for s in dp), default=0), count),
        "hamilton.rotation_failed_s": (total("hamilton.find_ham_cycle_rotation")[0], "s"),
        "hamilton.rotation_yield": (len(rot_ham) / len(large) if large else 0.0, "frac"),
        "hamilton.two_cliques_s": (total("hamilton.ham_cycle_two_cliques")[0], "s"),
        "hamilton.near_bipartite_s": (total("hamilton.ham_cycle_near_bipartite")[0], "s"),
        "hamilton.dirac_path_s": (total("hamilton.ham_path_dirac")[0], "s"),
        "hamilton.bipartite_path_s": (total("hamilton.ham_path_bipartite")[0], "s"),
        "counting.exact_s": (sum(duration(s) for s in exact), "s"),
        "counting.exact_subsets": (sum(s["subsets"] for s in exact), count),
        "counting.pool_speedup": (sum(map(duration, rr1)) / sum(map(duration, rr2))
                                  if rr1 and rr2 else 0.0, "x"),
        "counting.estimate_s": (est_s, "s"),
        "counting.estimate_overhead_s": (est_s - auto_s - replay_mask_s, "s"),
        "counting.gn_estimate_s": (total("counting.estimate_h", decider="gn")[0], "s"),
        "sampling.masks": (mask_n, count),
        "sampling.mask_s": (mask_s, "s"),
        "families.build_extremal_s": (total("families.build_extremal")[0], "s"),
        "cli.interpreter_s": (interp, "s"),
        "cli.import_s": (imp - interp, "s"),
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (cli_calls_s - main_s, "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    self_times = {}
    for wname, root in roots.items():
        table = tracer.self_times(root["id"])
        self_times[wname] = {"wall_s": duration(root),
                             "bench_overhead_s": table.pop("bench", 0.0),
                             "layers_s": table}
    detail = {
        "self_times": self_times,
        "probes": probes,
        "bases": {
            "rotation_yield": f"{len(rot_ham)} rotation successes / {len(large)} scopes > "
                              f"{ws.AUTO_DP_DIRECT} vertices",
            "pool_speedup": f"workers=1 {sum(map(duration, rr1)):.4f} s / workers=2 "
                            f"{sum(map(duration, rr2)):.4f} s on the random 10-regular "
                            f"m=18 graph",
            "overhead_frac": f"{name}: traced batch {duration(batches[name]):.4f} s vs "
                             f"untraced {untraced_s:.4f} s",
        },
    }
    return metrics, tally, detail, tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cycsets" / "__init__.py").is_file():
        print(f"error: no cycsets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start, speed_start = loadavg(), speed_probe_ms()

    t0 = time.perf_counter()
    import numpy
    import workloads as ws
    import_s = time.perf_counter() - t0

    names = WORKLOADS if args.trace else (args.workload,)
    built: dict = {}
    setup_times = []
    try:
        for rep in range(1 if args.trace else SETUP_REPS):
            for name in names:
                t0 = time.perf_counter()
                w = ws.SETUPS[name](args.seed, ROOT)
                if name == args.workload:
                    setup_times.append(time.perf_counter() - t0)
                if name in built:
                    built[name].close()
                built[name] = w
        setup_s = import_s + median(setup_times)
        if args.trace:
            metrics, tally, detail, spans = per_layer(args.workload, built, ws)
        else:
            metrics, tally, detail = end_to_end(args.workload, args.seconds, setup_s,
                                                built[args.workload], ws)
            spans = []
    finally:
        for w in built.values():
            w.close()

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": git_revision(), "loadavg_start": load_start,
        "loadavg_end": loadavg(), "speed_probe_ms_start": speed_start,
        "speed_probe_ms_end": speed_probe_ms(), "setup_s": setup_s,
        "info": {n: w.info for n, w in built.items()},
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": provenance, "detail": detail,
                               "result": result, "spans": spans}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
