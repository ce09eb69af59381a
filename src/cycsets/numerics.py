"""Binomial tails and the normal-window calculus behind the estimates.

Two backends share one interface: exact rationals (zero-tolerance checks,
n <= 2000) and log-space floats (large n, relative error around 1e-12).
f_n(t) = P(B(2n, 1/2) >= n + t) throughout.  Normal windows are
I[a, b] = (erf(b) - erf(a)) / 2, so I[-inf, inf] = 1, and
f(alpha) = I[-alpha/4, 1/alpha] is the curve whose three extrema sit at
the square roots of the zeros of g(x) = -x/16 + 1/x + ln(x/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, erf, exp, isqrt, lgamma, log, pi, sqrt

from .errors import BudgetExceededError, PreconditionError, VerificationError

EXACT_TAIL_MAX_N = 2000
FLOAT_TAIL_MAX_N = 10**7
_COMB_ANCHOR_MAX_N = 10**5
_LN2 = log(2.0)


@dataclass(frozen=True)
class BinomTail:
    n: int
    t: int
    value: float | Fraction


def _central_pmf(n: int) -> float:
    """P(B(2n,1/2) = n), correctly rounded for moderate n."""
    if n <= _COMB_ANCHOR_MAX_N:
        return float(Fraction(comb(2 * n, n), 1 << (2 * n)))
    return exp(lgamma(2 * n + 1) - 2 * lgamma(n + 1) - 2 * n * _LN2)


def _tail_float_pos(n: int, t: int) -> float:
    """f_n(t) for t >= 1 in floats: central subtraction for small t,
    anchored ratio walk down the tail otherwise."""
    central = _central_pmf(n)
    if t * t <= 4 * n:
        s = 0.0
        p = central
        for j in range(n, n + t - 1):  # accumulate P(Z = n+1 .. n+t-1)
            p *= (2 * n - j) / (j + 1)
            s += p
        return 0.5 * (1.0 - central) - s
    p = central
    for j in range(n, n + t):
        p *= (2 * n - j) / (j + 1)
        if p == 0.0:
            return 0.0
    s = p
    for j in range(n + t, 2 * n):
        p *= (2 * n - j) / (j + 1)
        s += p
        if p < s * 1e-17:
            break
    return s


def binom_tail(n: int, t: int, mode: str = "float") -> BinomTail:
    """f_n(t) = P(B(2n,1/2) >= n+t); exact Fractions or stable floats."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if abs(t) > n:
        raise PreconditionError(f"need |t| <= n (got t={t}, n={n})")
    if mode == "exact":
        if n > EXACT_TAIL_MAX_N:
            raise BudgetExceededError(f"exact tail budget: n={n} > {EXACT_TAIL_MAX_N}")
        total = sum(comb(2 * n, j) for j in range(n + t, 2 * n + 1))
        return BinomTail(n, t, Fraction(total, 1 << (2 * n)))
    if mode != "float":
        raise PreconditionError(f"unknown mode {mode!r}")
    if n > FLOAT_TAIL_MAX_N:
        raise BudgetExceededError(f"float tail budget: n={n} > {FLOAT_TAIL_MAX_N}")
    if t <= 0:
        return BinomTail(n, t, 1.0 - _tail_float_pos(n, 1 - t))
    return BinomTail(n, t, _tail_float_pos(n, t))


def chernoff_check(n: int, t_max: int) -> float:
    """Worst ratio f_n(t) / e^{-t^2/(3n+t)} over 1 <= t <= t_max.

    A value <= 1 means the exponential bound holds throughout.
    """
    if not 1 <= t_max <= n:
        raise PreconditionError("need 1 <= t_max <= n")
    worst = 0.0
    if n <= EXACT_TAIL_MAX_N:
        pmf = [comb(2 * n, j) for j in range(2 * n + 1)]
        suffix = [0] * (2 * n + 2)
        for j in range(2 * n, -1, -1):
            suffix[j] = suffix[j + 1] + pmf[j]
        den = 1 << (2 * n)
        tails = {t: float(Fraction(suffix[n + t], den)) for t in range(1, t_max + 1)}
    else:
        tails = {t: binom_tail(n, t).value for t in range(1, t_max + 1)}
    for t in range(1, t_max + 1):
        bound = exp(-t * t / (3 * n + t))
        worst = max(worst, tails[t] / bound)
    return worst


def fn_second_estimate_check(n: int) -> float:
    """Max of residual/bound for |f_n(t) - (1/2 - (t-1/2)/sqrt(n pi))|
    <= (2|t|^3 + 1)/n^{3/2} over integer |t| <= sqrt(n)/100.

    A value <= 1 certifies the second-order tail estimate on that range.
    """
    if n < 10**4:
        raise PreconditionError("need n >= 10^4 for a non-trivial t range")
    t_cap = isqrt(n) // 100
    root = sqrt(n * pi)
    worst = 0.0
    for t in range(-t_cap, t_cap + 1):
        f = binom_tail(n, t).value
        approx = 0.5 - (t - 0.5) / root
        bound = (2 * abs(t) ** 3 + 1) / n**1.5
        worst = max(worst, abs(f - approx) / bound)
    return worst


def bindiff_check(n: int, m: int) -> bool:
    """Exact check that X + m - Y ~ B(n+m, 1/2) for independent
    X ~ B(n,1/2), Y ~ B(m,1/2), by convolution (m - Y has the same
    distribution as Y)."""
    if n < 1 or m < 1:
        raise PreconditionError("need n, m >= 1")
    if n + m > 512:
        raise BudgetExceededError("exact convolution budget: n + m > 512")
    conv = [0] * (n + m + 1)
    for j in range(n + 1):
        cj = comb(n, j)
        for k in range(m + 1):
            conv[j + k] += cj * comb(m, k)
    return conv == [comb(n + m, s) for s in range(n + m + 1)]


# ---------------------------------------------------------------------------
# normal windows and the f(alpha) calculus
# ---------------------------------------------------------------------------


def normal_I(a: float, b: float) -> float:
    """I[a,b] = (erf(b) - erf(a))/2; +-inf allowed; I[-inf,inf] = 1."""
    if a > b:
        raise PreconditionError(f"need a <= b (got {a}, {b})")
    return (erf(b) - erf(a)) / 2.0


def f_alpha(alpha: float) -> float:
    """f(alpha) = I[-alpha/4, 1/alpha]; tends to 1/2 at both ends and
    stays strictly above it in between."""
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    return normal_I(-alpha / 4.0, 1.0 / alpha)


def window_m1_m2(alpha: float, beta: float) -> tuple[float, float, float]:
    """(m1, m2, I[-m1, m2]) with m1 = max(alpha/4, 2/beta - alpha) and
    m2 = max(beta/4, 1/alpha).

    For beta in [8/(5 alpha), 4/alpha] both maxima pick the f(alpha)
    endpoints, so the value equals f(alpha) exactly; outside that window
    one endpoint moves outward and the value can only grow.
    """
    if alpha <= 0 or beta <= 0:
        raise PreconditionError("alpha and beta must be positive")
    m1 = max(alpha / 4.0, 2.0 / beta - alpha)
    m2 = max(beta / 4.0, 1.0 / alpha)
    return m1, m2, normal_I(-m1, m2)


def g_of(x: float) -> float:
    """g(x) = -x/16 + 1/x + ln(x/4); its zeros square to the f extrema."""
    if x <= 0:
        raise PreconditionError("g is defined for x > 0")
    return -x / 16.0 + 1.0 / x + log(x / 4.0)


_CRIT_LO = 8.0 - 4.0 * sqrt(3.0)  # g' zeros: 8 -+ 4*sqrt(3)
_CRIT_HI = 8.0 + 4.0 * sqrt(3.0)


def _bisect_root(lo: float, hi: float) -> float:
    glo, ghi = g_of(lo), g_of(hi)
    if not (glo > 0 > ghi):
        raise VerificationError(f"bracket ({lo}, {hi}) does not straddle a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g_of(mid)
        if gm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 and abs(g_of(0.5 * (lo + hi))) <= 1e-12:
            break
    root = 0.5 * (lo + hi)
    if hi - lo > 1e-10 or abs(g_of(root)) > 1e-12:
        raise VerificationError("bisection failed to certify the root")
    return root


def g_roots() -> tuple[float, float, float]:
    """The three zeros r1 < r2 < r3 of g; r2 = 4 exactly (g(4) = 0 by
    direct cancellation), r1 and r3 by certified bisection.

    Also asserts the sign pattern +, -, +, - across the four intervals
    on a thousand-point log grid.
    """
    assert g_of(4.0) == 0.0
    r1 = _bisect_root(1e-6, _CRIT_LO)
    r3 = _bisect_root(_CRIT_HI, 1000.0)
    r2 = 4.0
    roots = (r1, r2, r3)
    lo, hi = 1e-3, 1000.0
    ratio = (hi / lo) ** (1.0 / 999)
    for i in range(1000):
        x = lo * ratio**i
        if min(abs(x - r) for r in roots) < 1e-6 * x:
            continue
        want_positive = x < r1 or r2 < x < r3
        if (g_of(x) > 0) != want_positive:
            raise VerificationError(f"g sign pattern violated at x={x}")
    return roots


def pn_expansion_check(
    n_values: list[int], surrogate: bool = False
) -> dict[int, float]:
    """Scaled residuals n^{3/2} |p_n - 1/2 - (3/2)/sqrt(n pi)| per n.

    p_n is the exact single-cycle family value for n <= 1000; beyond that
    (or on request) the proxy P(B(2n,1/2) >= n-1), which matches p_n up to
    an exponentially small error.
    """
    from .counting import p_exact_extremal

    out: dict[int, float] = {}
    for n in n_values:
        if not surrogate and n <= 1000:
            p = float(p_exact_extremal(n, [n + 1]))
        else:
            mode = "exact" if n <= EXACT_TAIL_MAX_N else "float"
            p = float(binom_tail(n, -1, mode=mode).value)
        out[n] = n**1.5 * abs(p - 0.5 - 1.5 / sqrt(n * pi))
    return out


def emit_f_alpha_curve(
    alpha_min: float, alpha_max: float, points: int
) -> list[tuple[float, float, bool]]:
    """(alpha, f(alpha), is_extremum) rows on a log grid, with the three
    extrema sqrt(r1), 2, sqrt(r3) inserted where they fall in range.

    Asserts every value exceeds 1/2 and that the rows rise and fall in the
    up/down/up/down shape the extrema dictate.
    """
    if not 0 < alpha_min < alpha_max:
        raise PreconditionError("need 0 < alpha_min < alpha_max")
    if points < 2:
        raise PreconditionError("need at least 2 grid points")
    r1, _, r3 = g_roots()
    ext = [sqrt(r1), 2.0, sqrt(r3)]
    ratio = (alpha_max / alpha_min) ** (1.0 / (points - 1))
    alphas = [(alpha_min * ratio**i, False) for i in range(points)]
    alphas.extend((e, True) for e in ext if alpha_min <= e <= alpha_max)
    alphas.sort()
    rows = [(a, f_alpha(a), is_ext) for a, is_ext in alphas]
    for _, v, _ in rows:
        if not v > 0.5:
            raise VerificationError(f"curve value {v} not above 1/2")
    for (x1, v1, _), (x2, v2, _) in zip(rows, rows[1:]):
        xm = sqrt(x1 * x2)
        rising = xm < ext[0] or ext[1] < xm < ext[2]
        if rising and v2 - v1 < -1e-14:
            raise VerificationError(f"expected rise between {x1} and {x2}")
        if not rising and v1 - v2 < -1e-14:
            raise VerificationError(f"expected fall between {x1} and {x2}")
    return rows
