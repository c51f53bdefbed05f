"""The logistic and softplus functions and the normal and Student-t CDFs,
without scipy.

`expit` is 1 / (1 + exp(-x)), the formula of `scipy.special.expit`;
`softplus` is log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), within 2
ulp of `np.logaddexp(0, x)` and cheaper; `ndtr` is the standard normal
CDF, cephes' formula on the C library's erf and erfc; `stdtr` is the
Student-t CDF from continued fractions of the incomplete beta function.
The Wald tests of `glm` take the lower tails of the last two. The other
three agree with scipy.special to rounding level, not bit for bit: the
relative difference is at most 1e-12 wherever scipy's value is a normal
float, and the values at 0, +-inf and NaN are exact. numpy's vector `exp`
differs from the C library's in the last bit on some arguments, so not
even `expit` can reproduce scipy's bits.

`expit` and `softplus` sit in Newton and gradient loops, so they open no
`np.errstate` (and write into `out` if given): exp(-x) overflows for x
below about -709 and `expit` is then 0, as in scipy, and a caller that
loops opens one errstate around its loop. `ndtr` and `stdtr` are meant
for one call over a whole vector of statistics.
"""

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_SQRT_PI = math.sqrt(math.pi)
# `ndtr` and `stdtr` work through this many values at a time, so their
# temporaries stay small however long the vector is.
_CHUNK = 1 << 15
# A continued fraction has converged once a step is within one ulp of 1;
# a tighter test can miss that forever while the value drifts by rounding.
_EPS = np.finfo(float).eps
_CF_MAX_ITER = 10_000


def expit(x, out=None):
    """The logistic function 1 / (1 + exp(-x)) of an array."""
    t = np.exp(np.negative(x, out=out), out=out)
    t += 1.0
    return np.divide(1.0, t, out=out)


def softplus(x, out=None):
    """log(1 + exp(x)) of an array; `out` must not be x."""
    t = np.abs(x, out=out)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    # In this order a NaN keeps the sign bit it has in the expression.
    return np.add(np.maximum(x, 0.0), t, out=t)


def _ndtr_one(x: float) -> float:
    # Cephes' ndtr, on the C library's erf and erfc.
    u = x * _SQRT1_2
    if abs(u) < 1.0:
        return 0.5 + 0.5 * math.erf(u)
    tail = 0.5 * math.erfc(abs(u))
    return 1.0 - tail if u > 0.0 else tail


def ndtr(x) -> np.ndarray:
    """The standard normal CDF of every value of x."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _CHUNK):
        chunk = flat[start : start + _CHUNK].tolist()
        out[start : start + len(chunk)] = [_ndtr_one(v) for v in chunk]
    return out.reshape(x.shape)


def stdtr(df: float, t) -> np.ndarray:
    """The CDF of Student's t with `df` > 0 degrees of freedom (a scalar,
    possibly non-integer) at every value of t; NaN for every t when df is
    not positive, and the normal CDF when df is infinite."""
    t = np.asarray(t, dtype=float)
    if not df > 0.0:
        return np.full(t.shape, np.nan)
    if math.isinf(df):
        return ndtr(t)
    flat = t.ravel()
    out = np.empty(flat.size)
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start : start + _CHUNK]
            tail = _t_tail(float(df), np.abs(chunk))
            out[start : start + chunk.size] = np.where(chunk < 0.0, tail, 1.0 - tail)
    return out.reshape(t.shape)


def _gamma_half_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a) for a > 0."""
    if a <= 100.0:
        return math.gamma(a + 0.5) / math.gamma(a)
    # Difference of the two Stirling series; its exponent is about
    # -1/(8a), so exp loses nothing and the result is sqrt(a) * that.
    b = a + 0.5
    series = (
        (1.0 / b - 1.0 / a) / 12.0
        - (b**-3 - a**-3) / 360.0
        + (b**-5 - a**-5) / 1260.0
    )
    return math.sqrt(a) * math.exp(a * math.log1p(0.5 / a) - 0.5 + series)


def _t_tail(df: float, t):
    """P(T > t) for t >= 0 (NaN stays NaN), from the regularized incomplete
    beta function: P(T > t) = I_x(a, 1/2) / 2 with a = df / 2 and
    x = 1 / (1 + q^2), q = t / sqrt(df). With g = Gamma(a + 1/2) / Gamma(a):

    - far out (q^2 > 3 / (df + 2)) it is g / (df sqrt(pi)) *
      (1 + q^2)^(1/2 - a) / q * 2F1(1/2, 1; a + 1; -1/q^2), the Pfaff
      transform of I_x, whose continued fraction has positive terms only;
    - near the centre it is 1/2 - g / sqrt(pi) * q * (1 + q^2)^(-a - 1/2)
      * 2F1(a + 1/2, 1; 3/2; q^2 / (1 + q^2)), from I_{1-x}(1/2, a), and
      stays above 0.04.

    Each fraction is used where it converges fast.
    """
    a = 0.5 * df
    g = _gamma_half_ratio(a) / _SQRT_PI
    out = np.full(t.shape, np.nan)
    ok = ~np.isnan(t)
    t = t[ok]
    q = t / math.sqrt(df)
    # q^2 with one rounding fewer than q * q; above 1e16, log(1 + q^2) is
    # 2 log(q) to double precision and q^2 may overflow.
    q2 = t * t / df
    log1pq2 = np.where(q2 < 1e16, np.log1p(q2), 2.0 * np.log(q))
    far = q2 * (df + 2.0) > 3.0
    tail = np.empty(q.shape)
    if far.any():
        qf = q[far]
        fraction = _hyp2f1_fraction(0.5, a, -1.0 / (qf * qf))
        tail[far] = g / df * np.exp((0.5 - a) * log1pq2[far]) / qf * fraction
    near = ~far
    if near.any():
        qn = q[near]
        fraction = _hyp2f1_fraction(a + 0.5, 0.5, q2[near] / (1.0 + q2[near]))
        front = g * qn * np.exp(-(a + 0.5) * log1pq2[near])
        tail[near] = 0.5 - front * fraction
    # At df = 1 the far formula is 0 * inf there.
    tail[np.isinf(t)] = 0.0
    out[ok] = tail
    return out


def _hyp2f1_fraction(alpha: float, c: float, z):
    """2F1(alpha, 1; c + 1; z) for every z < 1, by Gauss's continued fraction
    1 / (1 - k1 z / (1 - k2 z / (1 - ...))) with
    k(2n+1) = (alpha + n)(c + n) / ((c + 2n)(c + 2n + 1)) and
    k(2n) = n (c - alpha + n) / ((c + 2n - 1)(c + 2n)), evaluated forward by
    modified Lentz. Each value stops at its own convergence, so its result
    does not depend on the other values in the call."""
    tiny = 1e-300
    out = np.empty(z.shape)
    idx = np.arange(z.size)
    f = np.ones(z.shape)
    e = f.copy()
    d = np.zeros(z.shape)
    for n in range(_CF_MAX_ITER):
        for k in (
            (alpha + n) * (c + n) / ((c + 2 * n) * (c + 2 * n + 1.0)),
            (n + 1) * (c - alpha + n + 1) / ((c + 2 * n + 1.0) * (c + 2 * n + 2.0)),
        ):
            term = -k * z
            d = 1.0 + term * d
            d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
            e = 1.0 + term / e
            e = np.where(np.abs(e) < tiny, tiny, e)
            step = e * d
            f *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[idx[done]] = 1.0 / f[done]
            keep = ~done
            idx, z, f, e, d = idx[keep], z[keep], f[keep], e[keep], d[keep]
            if not idx.size:
                break
    out[idx] = 1.0 / f
    return out
