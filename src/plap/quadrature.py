"""Primitives of nonlinearities without a closed form: integral_0^t f(i, s) ds.

One routine, ``panel_quadrature``, integrates a vectorized integrand over
[0, t] for many upper limits at once: composite Gauss-Legendre panels cut at
the multiples of pi, a 10/20-point error estimate, level-by-level bisection,
and ``QuadratureFailure`` when the integrand is not finite or the tolerance
is out of reach.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureFailure


def _gauss_legendre(nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Full rule on [-1, 1] from its positive nodes and their weights."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# Positive roots x of P_n and weights 2 / ((1 - x^2) P_n'(x)^2), rounded from
# 40-digit values.  Stored, because computing them at import (an eigenvalue
# solve or numpy.polynomial) costs about 1 MB of resident memory.
X10, W10 = _gauss_legendre(
    (0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
     0.9739065285171717),
    (0.29552422471475287, 0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
     0.06667134430868814))
X20, W20 = _gauss_legendre(
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.9931285991850949),
    (0.15275338713072584, 0.14917298647260374, 0.14209610931838204, 0.13168863844917664,
     0.11819453196151841, 0.10193011981724044, 0.08327674157670475, 0.06267204833410907,
     0.04060142980038694, 0.017614007139152118))
_NODES = np.concatenate((X10, X20))  # both rules in one integrand call
_WEIGHTS = np.concatenate((-W10, W20))  # row sum: 20-point minus 10-point rule
# Past 63 kinks F is large enough for bisection to meet the relative slack at
# the remaining ones, so the panel count stops growing with t.
_MAX_PANELS = 64
_TOL, _MAX_DEPTH = 1e-10, 40  # absolute tolerance, bisection levels


def panel_quadrature(rate: Callable[[np.ndarray, np.ndarray], np.ndarray], i, t):
    """Integral of rate(i, s) ds over [0, t], elementwise over t >= 0.

    ``i`` is a vertex index, or an index array shaped like ``t``;
    ``rate(idx, x)`` evaluates f at points ``x`` of shape (P, 30) for an
    index ``idx`` broadcast against them.  [0, t] is cut into panels at the
    multiples of pi, the kinks of |sin t| in ``arctan_power``.  Each level
    integrates every open panel in one ``rate`` call with a 10- and a 20-point
    Gauss-Legendre rule, keeps the 20-point sum where the two agree to the
    panel's share of the tolerance, and bisects the rest.  Entries never mix,
    so a scalar call and a vector call give the same bits.
    """
    t = np.asarray(t, dtype=float)
    upper = t.reshape(-1)
    if not np.isfinite(upper).all():
        raise QuadratureFailure("non-finite upper limit")
    vertex = np.asarray(i)
    vertex = vertex.reshape(-1) if vertex.ndim else vertex
    count = np.minimum(np.ceil(upper / np.pi), _MAX_PANELS).astype(np.intp)
    owner = np.arange(upper.size).repeat(count)
    j = np.arange(owner.size) - (np.cumsum(count) - count).repeat(count)
    a = j * np.pi
    b = np.where(j + 1 < count[owner], a + np.pi, upper[owner])
    total = np.zeros(upper.size)
    if not owner.size:  # every upper limit is 0; empty arrays would page in numpy code
        return total.reshape(t.shape)[()]
    budget = None
    for _ in range(_MAX_DEPTH + 1):
        half = 0.5 * (b - a)
        x = (a + half)[:, None] + half[:, None] * _NODES
        fw = rate(vertex[owner][:, None] if vertex.ndim else vertex, x) * _WEIGHTS
        with np.errstate(invalid="ignore", over="ignore"):
            g20 = half * np.add.reduce(fw[:, 10:], axis=1)
            err = np.abs(half * np.add.reduce(fw, axis=1))
        if not np.isfinite(err).all():
            k = int(np.argmin(np.isfinite(err)))
            raise QuadratureFailure(f"non-finite integrand on [{a[k]:g}, {b[k]:g}]")
        if budget is None:
            # Pure absolute tolerance is unreachable in double precision once
            # the integral itself is large; allow relative slack at ~1e-13 of
            # the value.  Each panel gets its length's share.
            whole = np.abs(np.bincount(owner, weights=g20, minlength=upper.size))
            budget = np.maximum(_TOL, 1e-13 * whole)[owner] * (b - a) / upper[owner]
        # Where F piles up near t a share can fall below the rounding floor of
        # the panel's own sum, which no bisection gets under; the floor passes.
        ok = err <= np.maximum(budget, 1e-14 * np.abs(g20))
        total += np.bincount(owner[ok], weights=g20[ok], minlength=upper.size)
        if ok.all():
            return total.reshape(t.shape)[()]
        a, b, owner, budget = a[~ok], b[~ok], owner[~ok], 0.5 * budget[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        owner, budget = np.concatenate((owner, owner)), np.concatenate((budget, budget))
    raise QuadratureFailure(
        f"tolerance {_TOL:g} not reached at depth {_MAX_DEPTH} on [{a[0]:g}, {b[0]:g}]"
    )
