"""Binomial tails, the window calculus around f(alpha), and expansion checks."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, exp, floor, isqrt, pi, sqrt

import pytest

from cycsets.counting import p_exact_extremal
from cycsets.errors import BudgetExceededError, PreconditionError
from cycsets.numerics import (
    bindiff_check,
    binom_tail,
    chernoff_check,
    emit_f_alpha_curve,
    f_alpha,
    fn_second_estimate_check,
    g_of,
    g_roots,
    normal_I,
    pn_expansion_check,
)


# -- binomial tails ----------------------------------------------------------


def test_tail_exact_examples():
    assert binom_tail(4, 1, mode="exact").value == Fraction(93, 256)
    assert binom_tail(1, 0, mode="exact").value == Fraction(3, 4)
    for n in (1, 5, 40):
        assert binom_tail(n, -n, mode="exact").value == 1
        assert binom_tail(n, n, mode="exact").value == Fraction(1, 4**n)


def test_tail_exact_matches_direct_sum():
    for n in (1, 2, 5, 9):
        for t in range(-n, n + 1):
            want = Fraction(
                sum(comb(2 * n, j) for j in range(n + t, 2 * n + 1)), 4**n
            )
            assert binom_tail(n, t, mode="exact").value == want


def test_tail_symmetry_exact():
    for n in (3, 17, 200):
        for t in range(1 - n, n + 1):
            a = binom_tail(n, t, mode="exact").value
            b = binom_tail(n, 1 - t, mode="exact").value
            assert a + b == 1


def test_tail_monotone_in_t():
    for n in (10, 250):
        vals = [binom_tail(n, t, mode="exact").value for t in range(-n, n + 1)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_tail_float_close_to_exact():
    for n in (10, 100, 2000):
        ts = sorted({-n, -n // 2, -isqrt(n), -1, 0, 1, isqrt(n), n // 2, n})
        for t in ts:
            exact = binom_tail(n, t, mode="exact").value
            approx = binom_tail(n, t, mode="float").value
            if exact < Fraction(1, 10**300):
                continue  # below float range; nothing to compare
            assert abs(approx / float(exact) - 1) <= 1e-10


def test_tail_float_beyond_exact_budget():
    n = 10**5
    v = binom_tail(n, isqrt(n), mode="float").value
    assert 0 < v < 0.1
    assert binom_tail(n, 0, mode="float").value > 0.5


def test_tail_budgets():
    with pytest.raises(BudgetExceededError):
        binom_tail(2001, 0, mode="exact")
    with pytest.raises(BudgetExceededError):
        binom_tail(10**7 + 1, 0, mode="float")


# -- tail inequalities -------------------------------------------------------


def test_chernoff_bound_all_n_to_200():
    worst = max(chernoff_check(n, n) for n in range(1, 201))
    assert worst <= 1.0
    assert worst == pytest.approx(0.4808647915462787, abs=1e-9)


def test_chernoff_pointwise_spot():
    # ratio definition: f_n(t) <= exp(-t^2 / (3n + t))
    n, t = 50, 12
    f = float(binom_tail(n, t, mode="exact").value)
    assert f <= exp(-t * t / (3 * n + t))


def test_second_estimate_bound():
    a = fn_second_estimate_check(10**4)
    b = fn_second_estimate_check(25 * 10**4)
    assert 0 < a <= 1 and 0 < b <= 1
    assert a == pytest.approx(0.2233036681120737, abs=1e-9)


def test_bindiff_exact_identity():
    for n, m in [(1, 1), (3, 5), (8, 8), (2, 7)]:
        assert bindiff_check(n, m)
    with pytest.raises(BudgetExceededError):
        bindiff_check(300, 300)


# -- normal windows ----------------------------------------------------------


def _simpson_normal(a: float, b: float, steps: int = 4000) -> float:
    # density exp(-x^2)/sqrt(pi): the centered binomial scaling limit
    h = (b - a) / steps
    total = 0.0
    for i in range(steps + 1):
        x = a + i * h
        w = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += w * exp(-x * x)
    return total * h / 3 / sqrt(pi)


def test_normal_I_against_quadrature():
    for a, b in [(-0.5, 0.5), (-1.0, 2.0), (0.25, 3.0), (-4.0, -1.0)]:
        assert normal_I(a, b) == pytest.approx(_simpson_normal(a, b), abs=1e-9)


def test_normal_I_additive_and_antisymmetric():
    import random as _r

    rnd = _r.Random(0)
    for _ in range(50):
        a, b, c = sorted(rnd.uniform(-3, 3) for _ in range(3))
        assert normal_I(a, b) + normal_I(b, c) == pytest.approx(
            normal_I(a, c), abs=1e-11
        )
        assert normal_I(-b, -a) == pytest.approx(normal_I(a, b), abs=1e-13)


def test_clt_window_agreement_at_scale():
    # binomial windows vs the limiting normal windows, half-integer grid
    n = 10**4
    rt = sqrt(n)
    grid = [x / 2 for x in range(-4, 5)]
    sup = 0.0
    for i, a in enumerate(grid):
        for b in grid[i + 1 :]:
            t1, t2 = ceil(a * rt), floor(b * rt)
            pb = (
                binom_tail(n, t1, mode="float").value
                - binom_tail(n, t2 + 1, mode="float").value
            )
            pn = normal_I(t1 / rt, t2 / rt)
            sup = max(sup, abs(pb - pn))
    assert sup <= 0.01


# -- the f(alpha) calculus ---------------------------------------------------


def test_f_alpha_center_value():
    v = f_alpha(2.0)
    assert abs(v - 0.52050) <= 1e-4
    assert v > 0.5
    assert v == pytest.approx(0.5204998778130465, abs=1e-12)


def test_f_alpha_cross_check_at_one():
    assert f_alpha(1.0) >= 0.52
    assert f_alpha(1.0) == pytest.approx(0.559513591558976, abs=1e-12)


def test_f_alpha_symmetry():
    for k in range(1, 40):
        alpha = 0.25 * 1.2**k
        assert f_alpha(4.0 / alpha) == pytest.approx(f_alpha(alpha), abs=1e-12)


def test_f_alpha_grid_min_at_two_and_above_half():
    alphas = [0.2 * (100.0) ** (i / 400) for i in range(401)]  # [0.2, 20] log grid
    vals = [f_alpha(a) for a in alphas]
    assert all(v > 0.5 for v in vals)
    best = min(range(len(vals)), key=vals.__getitem__)
    # grid minimum sits at the nearest grid point to alpha = 2
    assert abs(alphas[best] - 2.0) <= alphas[best] * (100.0 ** (1 / 400) - 1)
    assert min(vals) == pytest.approx(f_alpha(2.0), abs=1e-3)


def test_f_alpha_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        f_alpha(0.0)
    with pytest.raises(PreconditionError):
        f_alpha(-1.0)


# -- the auxiliary function g and its roots ----------------------------------


def test_g_at_4_exactly_zero():
    assert g_of(4.0) == 0.0


def test_g_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        g_of(0.0)


def test_g_roots_certified():
    r1, r2, r3 = g_roots()
    assert r2 == 4.0
    assert 0 < r1 < 8 - 4 * sqrt(3)
    assert r3 > 8 + 4 * sqrt(3)
    assert abs(g_of(r1)) <= 1e-12
    assert abs(g_of(r3)) <= 1e-12
    assert r1 == pytest.approx(0.453380013237, abs=1e-9)
    assert r3 == pytest.approx(35.290483772663, abs=1e-8)


def test_g_reflection_identity_and_root_product():
    # g(16/x) = -g(x), hence the outer roots multiply to 16
    for k in range(1, 30):
        x = 0.05 * 1.3**k
        assert g_of(16.0 / x) == pytest.approx(-g_of(x), abs=1e-10)
    r1, _, r3 = g_roots()
    assert r1 * r3 == pytest.approx(16.0, abs=1e-9)


def test_g_roots_square_to_f_extrema():
    r1, r2, r3 = g_roots()
    a1, a2, a3 = sqrt(r1), sqrt(r2), sqrt(r3)
    eps = 1e-6
    for a in (a1, a2, a3):
        df = (f_alpha(a + eps) - f_alpha(a - eps)) / (2 * eps)
        assert abs(df) <= 1e-5
    assert f_alpha(a1) == pytest.approx(f_alpha(a3), abs=1e-12)
    assert f_alpha(a1) == pytest.approx(0.5762319679497195, abs=1e-12)


# -- family expansion residuals ----------------------------------------------


def test_pn_expansion_residuals():
    res = pn_expansion_check([64, 128, 256, 512])
    frozen = {
        64: 0.7488332702148739,
        128: 0.6652628501579636,
        256: 0.6674796076382563,
        512: 0.6687249603717147,
    }
    for n, want in frozen.items():
        assert res[n] == pytest.approx(want, abs=1e-6)
        assert res[n] <= 2.0
        # independent recomputation from the exact rational p_n
        p = p_exact_extremal(n, [n + 1])
        resid = n**1.5 * abs(float(p) - 0.5 - 1.5 / sqrt(n * pi))
        assert res[n] == pytest.approx(resid, abs=1e-9)
    vals = list(res.values())
    assert max(vals) / min(vals) <= 4.0


def test_pn_expansion_surrogate_mode():
    # above n = 1000 p_n is the proxy P(B(2n, 1/2) >= n - 1): exact tails up
    # to n = 2000, log-space floats beyond.  By symmetry the proxy is
    # 1/2 + P(B = n)/2 + P(B = n - 1), an exact rational independent of both
    ns = [1024, 2000, 4096]
    res = pn_expansion_check(ns)
    assert list(res) == ns
    for n in ns:
        p = Fraction(1, 2) + Fraction(comb(2 * n, n) + 2 * comb(2 * n, n - 1), 2 * 4**n)
        resid = n**1.5 * abs(float(p) - 0.5 - 1.5 / sqrt(n * pi))
        assert res[n] == pytest.approx(resid, abs=1e-5)
        assert 0.5 <= res[n] <= 2.0


# -- curve emission ----------------------------------------------------------


def test_curve_rows_and_extrema():
    rows = emit_f_alpha_curve(0.2, 20.0, 400)
    assert len(rows) == 403
    alphas = [a for a, _, _ in rows]
    assert alphas == sorted(alphas)
    marked = [a for a, _, flagged in rows if flagged]
    r1, _, r3 = g_roots()
    assert marked == pytest.approx([sqrt(r1), 2.0, sqrt(r3)], abs=1e-9)
    assert all(v > 0.5 for _, v, _ in rows)


def test_curve_monotonicity_pattern():
    rows = emit_f_alpha_curve(0.2, 20.0, 400)
    marked = [a for a, _, flagged in rows if flagged]
    vals = {a: v for a, v, _ in rows}
    alphas = [a for a, _, _ in rows]
    breaks = [alphas[0], *marked, alphas[-1]]
    directions = []
    for lo, hi in zip(breaks, breaks[1:]):
        seg = [vals[a] for a in alphas if lo <= a <= hi]
        ups = all(x <= y + 1e-14 for x, y in zip(seg, seg[1:]))
        downs = all(x >= y - 1e-14 for x, y in zip(seg, seg[1:]))
        directions.append("up" if ups else ("down" if downs else "mixed"))
    assert directions == ["up", "down", "up", "down"]


def test_curve_rejects_bad_range():
    with pytest.raises(PreconditionError):
        emit_f_alpha_curve(2.0, 1.0, 100)
    with pytest.raises(PreconditionError):
        emit_f_alpha_curve(-0.5, 3.0, 100)
    with pytest.raises(PreconditionError):
        emit_f_alpha_curve(0.2, 20.0, 1)
