"""Command-line front end: construct / count / estimate / analyze /
verify / curve.

Every JSON report embeds a run manifest (subcommand, argv, seed, workers,
version, input digests, wall time); identical invocations produce
byte-identical output except for the wall-time field.  Exit codes:
0 success, 2 precondition or parse failure (an unreadable input graph
included), 3 budget exceeded, 4 verification failure, 5 a report or
artifact that could not be written.

Each command and verify suite imports the package modules it runs, so a
process loads only those (README, "Install").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from . import __version__
from .errors import BudgetExceededError, PreconditionError, VerificationError, check_seed

if TYPE_CHECKING:
    from .bitgraph import Graph

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4
EXIT_WRITE = 5
# subsets `verify gncriterion` may walk per family member, one Python
# criterion call each: at 2^20 a member takes about 1.4 s (2-core VM)
GNCRITERION_MAX_SUBSETS = 1 << 20


class _WriteError(Exception):
    """A report or artifact could not be written."""


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


_ARGV: list[str] = []  # the argument vector main() actually parsed


def _manifest(subcommand, seed=None, workers=None, digests=None, wall=0.0):
    return {
        "subcommand": subcommand,
        "argv": list(_ARGV),
        "seed": seed,
        "workers": workers,
        "version": __version__,
        "input_digests": digests or {},
        "wall_time_s": round(wall, 6),
    }


def _write(out: str, text: str) -> None:
    """Write text to stdout (out == '-') or to the file out."""
    try:
        if out == "-":
            sys.stdout.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        where = "stdout" if out == "-" else out
        raise _WriteError(f"cannot write {where}: {exc.strerror}") from None


def _emit(report: dict, manifest: dict, out: str) -> None:
    text = json.dumps(
        {"manifest": manifest, "report": _jsonable(report)},
        sort_keys=True,
        indent=2,
    )
    _write(out, text + "\n")


def _read_graph(path: str) -> tuple[Graph, dict[str, str]]:
    import hashlib

    from .bitgraph import from_graph6

    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None
    digest = {path: hashlib.sha256(data).hexdigest()}
    text = data.decode("ascii", errors="replace").strip()
    if not text:
        raise PreconditionError("empty graph input")
    try:
        g = from_graph6(text.splitlines()[0])
    except (ValueError, IndexError) as exc:
        raise PreconditionError(f"graph6 parse failure: {exc}") from None
    return g, digest


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_ints(text: str, what: str) -> list[int]:
    """The comma-separated integers of `text`, at least one."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise PreconditionError(f"bad {what} {text!r}")
    return values


def _at_least_one(args, *names: str) -> None:
    """Refuse a zero or negative count of instances or workers, which would
    pass vacuously or be written into the manifest as given."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            flag = "--" + name.replace("_", "-")
            who = getattr(args, "suite", args.cmd)
            raise PreconditionError(f"{who} needs {flag} >= 1, got {value}")


def cmd_construct(args) -> int:
    from .bitgraph import to_graph6
    from .families import build_competitor, build_extremal, build_knn, build_star_augmented

    start = time.perf_counter()
    if args.family == "extremal":
        if args.n is None:
            raise PreconditionError("extremal needs --n")
        lengths = _parse_ints(args.cycles, "cycle list") if args.cycles else [args.n + 1]
        built = build_extremal(args.n, lengths)
        g = built.graph
        params = {"n": args.n, "cycles": lengths}
    elif args.family == "knn":
        if args.n is None:
            raise PreconditionError("knn needs --n")
        g = build_knn(args.n)
        params = {"n": args.n}
    elif args.family == "competitor":
        if args.k is None:
            raise PreconditionError("competitor needs --k")
        g = build_competitor(args.k).graph
        params = {"k": args.k}
    else:  # star
        if args.n is None:
            raise PreconditionError("star needs --n")
        g = build_star_augmented(args.n)
        params = {"n": args.n}
    line = to_graph6(g)
    _write(args.out, line + "\n")
    if args.out == "-":
        return EXIT_OK
    report = {
        "family": args.family,
        "parameters": params,
        "m": g.m,
        "edge_count": g.edge_count(),
        "degree_min": g.min_degree(),
        "degree_max": g.max_degree(),
        "graph6": line,
        "validated": True,
    }
    _emit(report, _manifest("construct", wall=time.perf_counter() - start), args.out + ".json")
    return EXIT_OK


def cmd_count(args) -> int:
    from .counting import cyc_count_exact

    start = time.perf_counter()
    g, digests = _read_graph(args.input)
    rep = cyc_count_exact(g)
    report = {**vars(rep), "m": g.m, "p_float": float(rep.p_exact)}
    _emit(
        report,
        _manifest("count", digests=digests, wall=time.perf_counter() - start),
        args.out,
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .counting import estimate_h

    start = time.perf_counter()
    _at_least_one(args, "workers")
    g, digests = _read_graph(args.input)
    try:
        p = Fraction(args.p)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"bad probability {args.p!r}") from None
    eg = None
    if args.decider == "gn":
        if args.n is None:
            raise PreconditionError("decider=gn needs --n (and optionally --cycles)")
        from .families import build_extremal

        lengths = _parse_ints(args.cycles, "cycle list") if args.cycles else [args.n + 1]
        eg = build_extremal(args.n, lengths)
        if eg.graph != g:
            raise PreconditionError(
                "input graph does not match the labeled family member"
            )
    rep = estimate_h(
        g, p, args.samples, args.seed,
        decider=args.decider, eg=eg, workers=args.workers,
    )
    report = {**vars(rep), "p_hat_float": float(rep.p_hat)}
    _emit(
        report,
        _manifest("estimate", seed=args.seed, workers=args.workers,
                  digests=digests, wall=time.perf_counter() - start),
        args.out,
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .analysis import classify

    start = time.perf_counter()
    g, digests = _read_graph(args.input)
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"bad --eps {args.eps!r}") from None
    cls = classify(g, eps, seed=args.seed, samples=args.samples)
    report = {
        "case": cls.case,
        "set_a": sorted(cls.set_a.members()) if cls.set_a is not None else None,
        "confidence": cls.confidence,
        "data": cls.data,
    }
    _emit(
        report,
        _manifest("analyze", seed=args.seed, digests=digests,
                  wall=time.perf_counter() - start),
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool, detail) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _suite_balancedcut(args) -> list[dict]:
    from .analysis import balanced_cut_cover_product, random_regular_graph
    from .bitgraph import Cut, VertexSet
    from .families import enumerate_regular_complements
    from .sampling import StreamRng

    _at_least_one(args, "instances", "cuts")
    checks = []
    tested = violations = 0
    for n in (2, 3, 4):
        for g in enumerate_regular_complements(n):
            m = 2 * n
            for xs in combinations(range(1, m), n - 1):
                sel = (0,) + xs
                cut = Cut(
                    VertexSet.of(m, sel),
                    VertexSet.of(m, [v for v in range(m) if v not in sel]),
                )
                rep = balanced_cut_cover_product(g, cut)
                tested += 1
                violations += not rep.holds
    checks.append(
        _check("exhaustive_n_2_3_4", violations == 0,
               f"{tested} balanced cuts, {violations} violations")
    )
    tested = violations = 0
    for inst in range(args.instances):
        rng = StreamRng(args.seed, inst)
        n = 2 + rng.below(9)  # n in 2..10
        g = random_regular_graph(2 * n, n + 1, seed=args.seed * 1000003 + inst)
        m = 2 * n
        for _ in range(args.cuts):
            pool = list(range(m))
            sel = []
            for _ in range(n):
                sel.append(pool.pop(rng.below(len(pool))))
            cut = Cut(VertexSet.of(m, sel), VertexSet.of(m, pool))
            rep = balanced_cut_cover_product(g, cut)
            tested += 1
            violations += not rep.holds
    checks.append(
        _check("pairing_model", violations == 0,
               f"{args.instances} instances x {args.cuts} cuts = {tested}, "
               f"{violations} violations")
    )
    return checks


def _suite_chernoff(args) -> list[dict]:
    from .numerics import chernoff_check

    _at_least_one(args, "n_max")
    worst = 0.0
    worst_n = 0
    for n in range(1, args.n_max + 1):
        r = chernoff_check(n, n)
        if r > worst:
            worst, worst_n = r, n
    return [
        _check("tail_bound", worst <= 1.0,
               f"worst ratio {worst:.6f} at n={worst_n} over n <= {args.n_max}")
    ]


def _suite_bindiff(args) -> list[dict]:
    from .numerics import bindiff_check

    return [
        _check(f"conv_{n}_{m}", bindiff_check(n, m), "exact pmf equality")
        for n, m in ((1, 1), (3, 5), (8, 8))
    ]


def _suite_pn(args) -> list[dict]:
    from .numerics import pn_expansion_check

    ns = _parse_ints("64,128,256,512" if args.n_list is None else args.n_list, "--n-list")
    table = pn_expansion_check(ns)
    checks = [
        _check(f"residual_n{n}", table[n] <= 2.0, f"scaled residual {table[n]:.4f}")
        for n in ns
    ]
    vals = list(table.values())
    checks.append(
        _check("trend_flat", max(vals) / min(vals) <= 4.0,
               f"max/min residual ratio {max(vals) / min(vals):.3f}")
    )
    return checks


def _suite_fnsecond(args) -> list[dict]:
    from .numerics import fn_second_estimate_check

    out = []
    for n in _parse_ints("10000,250000" if args.n_list is None else args.n_list, "--n-list"):
        r = fn_second_estimate_check(n)
        out.append(_check(f"second_estimate_n{n}", r <= 1.0, f"max ratio {r:.4f}"))
    return out


def _suite_calculus(args) -> list[dict]:
    from .numerics import emit_f_alpha_curve, f_alpha, g_of, g_roots

    checks = []
    checks.append(_check("g_at_4_exact_zero", g_of(4.0) == 0.0, "direct cancellation"))
    r1, r2, r3 = g_roots()
    checks.append(
        _check("roots_certified", abs(g_of(r1)) <= 1e-12 and abs(g_of(r3)) <= 1e-12,
               f"r1={r1:.12f}, r2={r2}, r3={r3:.12f}")
    )
    f2 = f_alpha(2.0)
    checks.append(
        _check("f2_value", abs(f2 - 0.52050) <= 1e-4 and f2 > 0.5, f"f(2)={f2:.6f}")
    )
    rows = emit_f_alpha_curve(0.2, 20.0, 400)
    gridmin = min(v for _, v, _ in rows)
    checks.append(
        _check("grid_min_at_2", abs(gridmin - f2) <= 1e-3, f"min={gridmin:.6f}")
    )
    checks.append(
        _check("grid_above_half", all(v > 0.5 for _, v, _ in rows),
               f"{len(rows)} rows")
    )
    f1 = f_alpha(1.0)
    checks.append(_check("f1_at_least_052", f1 >= 0.52, f"f(1)={f1:.6f}"))
    return checks


def _suite_gncriterion(args) -> list[dict]:
    from .families import _cycle_partitions, build_extremal, gn_criterion_mask
    from .subsetdp import Quotient

    checks = []
    n = args.n
    if n < 2:
        raise PreconditionError(f"gncriterion needs --n >= 2, got {n}")
    if 2 * n >= GNCRITERION_MAX_SUBSETS.bit_length():  # 2^(2n) over it, never built
        raise BudgetExceededError(
            f"gncriterion walks all 2^{2 * n} subsets of each member; "
            f"budget is {GNCRITERION_MAX_SUBSETS} subsets"
        )
    for part in _cycle_partitions(n + 1):
        eg = build_extremal(n, part)
        m = eg.graph.m
        # the every-start kernel over the whole member, as `count` runs it:
        # S is cyclic iff the closing set has S's state, the sum of its
        # digits' weights, read a byte of S at a time; closed[x] is bit x
        q = Quotient(eg.graph.rows, None)
        closed = f"{q.closing():0{q.size}b}"[::-1]
        weight = [q.weight[j] for j in q.digit]
        low, *high = [
            [sum(weight[i + w] for w in range(8) if b >> w & 1)
             for b in range(1 << min(8, m - i))]
            for i in range(0, m, 8)
        ]
        bad = 0
        for hi in range(1 << max(m - 8, 0)):
            base = sum(t[hi >> 8 * i & 255] for i, t in enumerate(high))
            for lo, x in enumerate(low):
                if gn_criterion_mask(eg, hi << 8 | lo) != (closed[base + x] == "1"):
                    bad += 1
        checks.append(
            _check(f"type_{'_'.join(map(str, part))}", bad == 0,
                   f"{1 << m} subsets, {bad} disagreements")
        )
    return checks


def _suite_builders(args) -> list[dict]:
    from .hamilton import ham_cycle_near_bipartite, ham_cycle_two_cliques
    from .hamilton import ham_path_bipartite, ham_path_dirac
    from .instances import bipartite_instance, dirac_instance
    from .instances import near_bipartite_instance, two_cliques_instance

    # each build returns (graph, certificate, the ends a path must have)
    def two_cliques(s):
        g, cut = two_cliques_instance(600, seed=s)
        return g, ham_cycle_two_cliques(g, cut, seed=s), None

    def near_bipartite(s):
        g, cut, forest = near_bipartite_instance(600, seed=s)
        return g, ham_cycle_near_bipartite(g, cut, forest, seed=s), None

    def dirac(s):
        g, a, b = dirac_instance(200, seed=s)
        return g, ham_path_dirac(g, a, b, seed=s), (a, b)

    def bipartite(s):
        g, left, right, a, b = bipartite_instance(200, seed=s)
        return g, ham_path_bipartite(g, left, right, a, b, seed=s), (a, b)

    _at_least_one(args, "count")
    checks = []
    for name, build in (("two_cliques_m600", two_cliques),
                        ("near_bipartite_m600", near_bipartite),
                        ("dirac_path_m200", dirac), ("bipartite_path_m200", bipartite)):
        # an instance counts when its certificate validates and a path runs
        # from a to b; the first failure's message joins the detail
        ok, why = 0, ""
        for s in range(args.seed, args.seed + args.count):
            try:
                g, cert, ends = build(s)
                cert.validate(g, g.full_mask())
            except VerificationError as exc:
                why = why or f" ({exc})"
                continue
            ok += ends is None or (cert.order[0], cert.order[-1]) == ends
        checks.append(_check(name, ok == args.count, f"{ok}/{args.count}{why}"))
    return checks


def _suite_mainplus(args) -> list[dict]:
    from .counting import mainplus_report

    rows = mainplus_report()
    member = [r["complement_of"] for r in rows if r["is_extremal_member"]]
    return [
        _check("table_generated", len(rows) == 3, _jsonable(rows)),
        _check("member_identified", member == ["C5+C3"], f"member: {member}"),
    ]


_SUITES = {
    "balancedcut": _suite_balancedcut,
    "chernoff": _suite_chernoff,
    "bindiff": _suite_bindiff,
    "pn": _suite_pn,
    "fnsecond": _suite_fnsecond,
    "calculus": _suite_calculus,
    "gncriterion": _suite_gncriterion,
    "builders": _suite_builders,
    "mainplus": _suite_mainplus,
}


def cmd_verify(args) -> int:
    start = time.perf_counter()
    check_seed(args.seed)
    checks = _SUITES[args.suite](args)
    all_pass = all(c["pass"] for c in checks)
    report = {"suite": args.suite, "checks": checks, "all_pass": all_pass}
    _emit(
        report,
        _manifest("verify", seed=args.seed,
                  wall=time.perf_counter() - start),
        args.out,
    )
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def cmd_curve(args) -> int:
    from .numerics import emit_f_alpha_curve

    rows = emit_f_alpha_curve(args.alpha_min, args.alpha_max, args.points)
    lines = ["alpha,f_alpha,is_extremum"]
    lines += [f"{a:.12g},{v:.12g},{int(e)}" for a, v, e in rows]
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _write_svg(args.svg, rows)
    return EXIT_OK


def _write_svg(path: str, rows) -> None:
    from math import log

    w, h, pad = 800, 500, 50
    xs = [log(a) for a, _, _ in rows]
    vs = [v for _, v, _ in rows]
    x0, x1 = min(xs), max(xs)
    v0, v1 = min(vs), max(vs)
    vspan = (v1 - v0) or 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (w - 2 * pad)

    def py(v):
        return h - pad - (v - v0) / vspan * (h - 2 * pad)

    pts = " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(xs, vs))
    markers = "".join(
        f'<circle cx="{px(log(a)):.2f}" cy="{py(v):.2f}" r="5" '
        f'fill="crimson"/>' for a, v, e in rows if e
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        f'stroke-width="1.5"/>'
        f"{markers}"
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" '
        f'font-size="13">alpha (log scale)</text>'
        "</svg>"
    )
    _write(path, svg + "\n")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycsets",
        description="Cyclic vertex subsets: construction, counting, "
        "estimation, analysis, verification.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("family", choices=["extremal", "knn", "competitor", "star"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--cycles", help="comma-separated 2-factor cycle lengths")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "count",
        help="exact cyclic-subset count (graph6 input, within the DP's memory budget)",
        description="Exact cyclic-subset count by the anchored subset DP over twin "
        "classes. A graph whose DP would need more than 54,806,892 bytes exits 3 "
        "before the DP allocates. Every twin-free graph of more than 24 vertices "
        "does; graphs with large twin classes, such as the paper's families, "
        "count past 24 vertices.",
    )
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("estimate", help="Monte Carlo h(G,p) estimate")
    p.add_argument("input")
    p.add_argument("--p", required=True, help="retention probability, e.g. 1/2")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--decider", choices=["auto", "exact", "gn"], default="auto")
    p.add_argument("--n", type=int, help="family parameter (decider=gn)")
    p.add_argument("--cycles", help="family cycle type (decider=gn)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("analyze", help="structure classification of a cut regime")
    p.add_argument("input")
    p.add_argument("--eps", default="1/320")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4, help="gncriterion family size")
    p.add_argument("--n-max", type=int, default=200, help="chernoff range")
    p.add_argument("--n-list", help="pn / fnsecond n values")
    p.add_argument("--instances", type=int, default=200, help="balancedcut")
    p.add_argument("--cuts", type=int, default=100, help="balancedcut")
    p.add_argument("--count", type=int, default=5, help="builders instances")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="emit the f(alpha) curve (CSV + SVG)")
    p.add_argument("--alpha-min", type=float, default=0.2)
    p.add_argument("--alpha-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--out", default="-")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_curve)

    return ap


def main(argv=None) -> int:
    global _ARGV
    _ARGV = list(argv) if argv is not None else sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE


def entry() -> int:
    """Process entry point of `cycsets` and `python -m cycsets.cli`.

    No command does floating-point linear algebra, but numpy (loaded by the
    Monte Carlo masks of `estimate`) starts an OpenBLAS worker per extra
    core on import, and each worker spins for about 70 ms of CPU before it
    sleeps.  One BLAS thread keeps that from competing with the command
    itself.  Set here, not in `main`, so that calling `main` in process
    leaves the caller's environment alone.

    A process ends through `run`, which skips interpreter finalisation:
    that would only free objects, yet costs about as much as a short
    command's own work.  Every file a command writes is closed by its
    `with` block and a worker pool is shut down on return, so only stdout
    and stderr are left to flush.  `entry` itself returns the exit code to
    its caller.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return main()


def run() -> None:
    """Run `entry`, flush the standard streams and end the process.

    A report written to stdout may still sit in its buffer, so a full disk
    or a closed pipe shows up at this flush; it ends in one `error:` line
    and EXIT_WRITE."""
    code = entry()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = EXIT_WRITE
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
