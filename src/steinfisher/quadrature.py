"""Adaptive Gauss-Kronrod quadrature for vectorized integrands.

All numeric integration in the package funnels through :func:`integrate`:
adaptive bisection of a (7, 15) Gauss-Kronrod pair until the summed error
estimate drops below an absolute tolerance (default ``1e-10``).  Integrands
must accept a 1-D numpy array and return an array of the same shape.
Improper integrals over ``(0, inf)`` go through :func:`integrate_half_line`,
which applies the substitution ``x = t / (1 - t)``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import QuadratureFailure

DEFAULT_TOL = 1e-10
REL_TOL = 1e-12  # subdivision also stops at this error relative to the value

# 15-point Kronrod abscissae on [-1, 1]; the odd indices form the embedded
# 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _panels(f, lefts, rights):
    """Evaluate GK15 on a batch of panels with one integrand call.

    Returns per-panel (kronrod, error) arrays.  The error estimate is the
    QUADPACK one: |K - G| sharpened by the panel's total variation proxy,
    which stays honest next to integrable endpoint singularities.
    """
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    xs = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    ys = np.asarray(f(xs), dtype=float).reshape(len(lefts), _XK.size)
    if not np.all(np.isfinite(ys)):
        bad = xs.reshape(len(lefts), _XK.size)[~np.isfinite(ys)]
        raise QuadratureFailure(f"integrand not finite near x={float(bad.flat[0])!r}")
    k = half * (ys @ _WK)
    g = half * (ys[:, 1::2] @ _WG)
    diff = np.abs(k - g)
    mean_val = k / np.where(half == 0.0, 1.0, 2.0 * half)
    resasc = half * (np.abs(ys - mean_val[:, None]) @ _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * diff / np.where(
                              resasc > 0.0, resasc, 1.0)) ** 1.5),
                          diff)
    return k, scaled


def integrate(f, a, b, *, tol=DEFAULT_TOL, limit=1024, init=4):
    """Integrate ``f`` over the finite interval ``[a, b]``.

    Subdivides until ``sum(err) <= max(tol, REL_TOL * |integral|)`` or the
    panel ``limit`` is reached, in which case :class:`QuadratureFailure`
    carries the achieved error estimate.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureFailure("integrate requires finite bounds")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol=tol, limit=limit, init=init)

    edges = np.linspace(a, b, max(1, int(init)) + 1)
    ks, errs = _panels(f, edges[:-1], edges[1:])
    heap = []
    counter = 0
    for lo, hi, k, e in zip(edges[:-1], edges[1:], ks, errs):
        heapq.heappush(heap, (-e, counter, lo, hi, k))
        counter += 1
    total = float(ks.sum())
    total_err = float(errs.sum())

    while total_err > max(tol, REL_TOL * abs(total)) and len(heap) < limit:
        neg_e, _, lo, hi, k = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        ks, errs = _panels(f, [lo, mid], [mid, hi])
        total += float(ks.sum()) - k
        total_err += float(errs.sum()) + neg_e
        for child_lo, child_hi, child_k, child_e in zip(
                (lo, mid), (mid, hi), ks, errs):
            heapq.heappush(heap, (-child_e, counter, child_lo, child_hi, child_k))
            counter += 1

    if total_err > max(tol, REL_TOL * abs(total)):
        raise QuadratureFailure(
            f"quadrature on [{a}, {b}] stalled at error {total_err:.3e} "
            f"(requested {tol:.3e})", achieved=total_err)
    return total


def integrate_half_line(f, *, tol=DEFAULT_TOL, power=3):
    """Integrate ``f`` over ``(0, inf)`` via ``x = t / (1 - t)^power``.

    The mapped integrand stays bounded at ``t = 1`` for every integrand
    decaying like ``x^-s`` with ``s >= 1 + 1/power``; the plain
    ``t / (1 - t)`` map leaves an integrable endpoint singularity for
    slowly decaying tails, which quietly costs several digits.  Near
    ``t = 1`` a large power takes ``x`` or the Jacobian past the float
    range; those abscissae carry nan, without a warning, and are refused
    like any non-finite value.  Callers are expected to have probed
    integrability beforehand.
    """

    def mapped(ts):
        ts = np.asarray(ts, dtype=float)
        om = 1.0 - ts
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            xs = ts / om ** power
            den = om ** (power + 1)
        # t = 1 (x = inf) and abscissae past the float range stay nan, which
        # _panels refuses
        vals = np.full_like(ts, np.nan)
        ok = np.isfinite(xs) & (den > 0.0)
        f_x = np.asarray(f(xs[ok]), dtype=float)
        with np.errstate(over="ignore"):
            vals[ok] = f_x * (1.0 + (power - 1) * ts[ok]) / den[ok]
        return vals

    return integrate(mapped, 0.0, 1.0, tol=tol, limit=4096, init=8)
