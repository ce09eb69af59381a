"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints a short PASS detail line (visible with -s).
Tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import csv
import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import comb, pi, sqrt

from conftest import complete, cycle

from cycsets.analysis import balanced_cut_cover_product, random_regular_graph
from cycsets.bitgraph import Cut, VertexSet
from cycsets.counting import (
    cyc_count_exact,
    estimate_h,
    mainplus_report,
    p_exact_extremal,
    p_exact_knn,
)
from cycsets.families import build_extremal, build_knn, enumerate_regular_complements
from cycsets.hamilton import (
    gn_criterion,
    ham_cycle_near_bipartite,
    ham_cycle_two_cliques,
    ham_path_bipartite,
    ham_path_dirac,
    is_hamiltonian_exact,
)
from cycsets.instances import (
    bipartite_instance,
    dirac_instance,
    near_bipartite_instance,
    two_cliques_instance,
)
from cycsets.numerics import (
    bindiff_check,
    binom_tail,
    chernoff_check,
    emit_f_alpha_curve,
    f_alpha,
    fn_second_estimate_check,
    g_of,
    g_roots,
    pn_expansion_check,
)
from cycsets import cli

# (n, cycle lengths) for every extremal-family member with n <= 5: the
# lengths partition n + 1 into parts of size >= 3.
SMALL_FAMILY = [
    (2, [3]),
    (3, [4]),
    (4, [5]),
    (5, [6]),
    (5, [3, 3]),
]


def _balanced_cuts(m):
    half = m // 2
    from itertools import combinations

    for rest in combinations(range(1, m), half - 1):
        x = (0,) + rest
        xs = VertexSet.of(m, list(x))
        yield Cut(xs, xs.complement())


def test_c01_exact_counts_and_bipartite_closed_form():
    # Zero tolerance: exact rational arithmetic throughout.
    assert cyc_count_exact(complete(4)).cyclic_count == 5
    assert cyc_count_exact(cycle(5)).cyclic_count == 1
    octa = build_extremal(3, [4]).graph
    rep = cyc_count_exact(octa)
    assert rep.cyclic_count == 30
    assert rep.p_exact == Fraction(15, 32)
    for n in range(1, 7):
        closed = Fraction(comb(2 * n, n) - 1 - n * n, 4**n)
        assert p_exact_knn(n) == closed
        assert cyc_count_exact(build_knn(n)).p_exact == closed
    print("PASS: criterion 1 — exact counts K4=5, C5=1, octahedron 30 (15/32); "
          "complete-bipartite closed form matches enumeration for n <= 6")


def test_c02_fast_criterion_matches_dp_on_all_subsets():
    # Zero disagreements over every subset of every family member, n in 2..5.
    compared = 0
    for n, cycles in SMALL_FAMILY:
        eg = build_extremal(n, cycles)
        m = 2 * n
        for mask in range(1 << m):
            s = VertexSet(mask, m)
            fast = gn_criterion(eg, s)
            dp = is_hamiltonian_exact(eg.graph, s)
            assert fast == (dp.status == "hamiltonian"), (n, cycles, mask)
            compared += 1
    assert compared == 16 + 64 + 256 + 1024 + 1024
    print(f"PASS: criterion 2 — structural criterion == Hamiltonicity DP on "
          f"{compared} subsets across {len(SMALL_FAMILY)} family members")


def test_c03_extremal_probability_closed_form_and_residuals():
    # Exact equality with enumeration for n <= 5 (every cycle type).
    for n, cycles in SMALL_FAMILY:
        g = build_extremal(n, cycles).graph
        assert p_exact_extremal(n, cycles) == cyc_count_exact(g).p_exact, (n, cycles)
    # Scaled residual n^{3/2} |p_n - 1/2 - (3/2)/sqrt(n pi)| <= 2.
    ns = [64, 128, 256, 512]
    res = pn_expansion_check(ns)
    for n in ns:
        p = p_exact_extremal(n, [n + 1])
        resid = n**1.5 * abs(float(p) - 0.5 - 1.5 / sqrt(n * pi))
        assert abs(res[n] - resid) <= 1e-9
        assert res[n] <= 2.0, (n, res[n])
    print(f"PASS: criterion 3 — transfer-matrix p matches enumeration for n <= 5; "
          f"scaled residuals {[round(res[n], 3) for n in ns]} all <= 2")


def test_c04_calculus_suite():
    assert g_of(4.0) == 0.0  # exact: the terms cancel in floating point too
    r1, r2, r3 = g_roots()
    assert r2 == 4.0
    lo, hi = 8 - 4 * sqrt(3), 8 + 4 * sqrt(3)
    assert 0 < r1 < lo and hi < r3
    assert abs(g_of(r1)) <= 1e-12 and abs(g_of(r3)) <= 1e-12
    f2 = f_alpha(2.0)
    assert abs(f2 - 0.52050) <= 1e-4
    assert f2 > 0.5
    # Independent 400-point uniform grid over [0.2, 20] (not containing 2.0).
    grid = [0.2 + i * (19.8 / 399) for i in range(400)]
    vals = [f_alpha(a) for a in grid]
    assert all(v > 0.5 for v in vals)
    assert abs(min(vals) - f2) <= 1e-3
    assert f_alpha(1.0) >= 0.52
    print(f"PASS: criterion 4 — g(4)=0, roots ({r1:.6f}, {r3:.6f}) certified to "
          f"1e-12, f(2)={f2:.6f} is the grid minimum, all grid values > 1/2, "
          f"f(1)={f_alpha(1.0):.4f} >= 0.52")


def test_c05_binomial_suite():
    assert binom_tail(4, 1, mode="exact").value == Fraction(93, 256)  # exact
    worst = max(chernoff_check(n, n) for n in range(1, 201))
    assert worst <= 1.0, worst  # tail <= e^{-t^2/(3n+t)} for all 1<=t<=n<=200
    ratios = [fn_second_estimate_check(10**4), fn_second_estimate_check(25 * 10**4)]
    assert all(r <= 1.0 for r in ratios), ratios
    for n, m in [(1, 1), (3, 5), (8, 8)]:
        assert bindiff_check(n, m)  # exact rational identity, zero discrepancy
    print(f"PASS: criterion 5 — f4(1)=93/256 exact, Chernoff worst ratio "
          f"{worst:.4f} <= 1 over n <= 200, second-estimate ratios "
          f"{[round(r, 4) for r in ratios]} <= 1, difference identity exact at "
          f"(1,1),(3,5),(8,8)")


def test_c06_cover_product_all_and_sampled_cuts():
    checked = 0
    # Every balanced cut of every (n+1)-regular graph on 2n vertices, n in 2..4.
    for n in (2, 3, 4):
        for g in enumerate_regular_complements(n):
            for cut in _balanced_cuts(2 * n):
                assert balanced_cut_cover_product(g, cut).holds, (n, cut)
                checked += 1
    assert checked == 1 * 3 + 1 * 10 + 3 * 35
    exhaustive = checked
    # 200 pairing-model instances, 100 sampled balanced cuts each, n <= 10.
    for seed in range(200):
        n = 2 + seed % 9
        m = 2 * n
        g = random_regular_graph(m, n + 1, seed=seed)
        rnd = random.Random(10_000 + seed)
        for _ in range(100):
            xs = rnd.sample(range(m), n)
            cut = Cut(VertexSet.of(m, xs), VertexSet.of(m, xs).complement())
            assert balanced_cut_cover_product(g, cut).holds, (seed, xs)
            checked += 1
    print(f"PASS: criterion 6 — cover product bound holds on all {exhaustive} "
          f"exhaustive cuts (n=2..4) and {checked - exhaustive} sampled cuts on "
          f"200 random regular instances; 0 violations")


def test_c07_constructive_builders_success_rate():
    for seed in range(50):
        g, cut = two_cliques_instance(600, seed)
        cert = ham_cycle_two_cliques(g, cut, seed=seed)
        cert.validate(g, g.full_mask())
        assert len(cert.order) == 600
    for seed in range(50):
        g, cut, forest = near_bipartite_instance(600, seed)
        cert = ham_cycle_near_bipartite(g, cut, forest, seed=seed)
        cert.validate(g, g.full_mask())
        assert len(cert.order) == 600
    for seed in range(100):
        g, a, b = dirac_instance(200, seed)
        cert = ham_path_dirac(g, a, b, seed=seed)
        cert.validate(g, g.full_mask())
        assert cert.order[0] == a and cert.order[-1] == b
    for seed in range(100):
        g, left, right, a, b = bipartite_instance(200, seed)
        cert = ham_path_bipartite(g, left, right, a, b, seed=seed)
        cert.validate(g, g.full_mask())
        assert cert.order[0] == a and cert.order[-1] == b
    print("PASS: criterion 7 — cycle builders 50/50 each at m=600, path "
          "builders 100/100 each at m=200, every certificate validated")


def test_c08_monte_carlo_calibration_and_determinism():
    g = build_extremal(3, [4]).graph
    rep = estimate_h(g, Fraction(1, 2), 100_000, seed=7)
    exact = 15 / 32
    se = sqrt(exact * (1 - exact) / 100_000)
    assert abs(float(rep.p_hat) - exact) <= 4 * se
    assert rep.undecided_fraction == 0
    # Determinism: full-report equality across repeats and worker counts.
    again = estimate_h(g, Fraction(1, 2), 100_000, seed=7)
    assert again == rep
    wide = estimate_h(g, Fraction(1, 2), 100_000, seed=7, workers=8)
    assert wide == rep
    print(f"PASS: criterion 8 — p_hat={float(rep.p_hat):.5f} within 4 SE of "
          f"15/32={exact:.5f}, undecided 0, reports identical across repeats "
          f"and workers 1 vs 8")


def test_c09_five_regular_eight_vertex_report():
    rows = mainplus_report()
    assert len(rows) == 3
    names = {r["complement_of"] for r in rows}
    assert names == {"C8", "C5+C3", "C4+C4"}
    for r in rows:
        assert r["p_exact"] == Fraction(r["cyclic_count"], 256)
    members = [r["complement_of"] for r in rows if r["is_extremal_member"]]
    assert members == ["C5+C3"]
    table = "; ".join(
        f"{r['complement_of']}: {r['cyclic_count']}/256" for r in rows
    )
    print(f"PASS: criterion 9 — 5-regular 8-vertex table generated ({table}); "
          f"family member identified: C5+C3")


def test_c10_curve_artifacts_extrema_and_shape(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    code = cli.main(
        ["curve", "--points", "400", "--out", str(out), "--svg", str(svg)]
    )
    capsys.readouterr()
    assert code == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(float(a), float(v), flag == "1") for a, v, flag in reader]
    assert header == ["alpha", "f_alpha", "is_extremum"]
    assert len(rows) == 403
    r1, _, r3 = g_roots()
    marked = [a for a, _, flagged in rows if flagged]
    assert len(marked) == 3
    for got, want in zip(marked, [sqrt(r1), 2.0, sqrt(r3)]):
        assert abs(got - want) <= 1e-9
    # Shape: increase to the first maximum, decrease to the minimum at 2,
    # increase to the second maximum, decrease toward the right edge.
    alphas = [a for a, _, _ in rows]
    vals = dict((a, v) for a, v, _ in rows)
    breaks = [alphas[0], *marked, alphas[-1]]
    directions = []
    for lo, hi in zip(breaks, breaks[1:]):
        seg = [vals[a] for a in alphas if lo <= a <= hi]
        ups = all(x <= y + 1e-14 for x, y in zip(seg, seg[1:]))
        downs = all(x >= y - 1e-14 for x, y in zip(seg, seg[1:]))
        directions.append("up" if ups else ("down" if downs else "mixed"))
    assert directions == ["up", "down", "up", "down"]
    # SVG artifact: well-formed XML, one polyline, three extremum markers.
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(polylines) == 1 and len(circles) == 3
    print("PASS: criterion 10 — curve CSV (403 rows) and SVG emitted; extrema "
          "marked at sqrt(r1), 2, sqrt(r3); shape up/down/up/down verified")
