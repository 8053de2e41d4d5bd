"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from mpmath import mp, mpf
from mpmath import sqrt as msqrt

from plap import (
    ArctanPower,
    DirichletFunction,
    ExponentField,
    Potential,
    ProblemSpec,
    RegimeTag,
    SolverOptions,
    check_inequality,
    classify_regime,
    energy_value,
    fixture_path,
    gradient_residual,
    green_pairing,
    instance_constants,
    lambda_thresholds,
    norm_and_parts,
    solve,
    verify_positive,
)
from plap.calculus import VertexFunction

from conftest import (
    bisect_roots,
    cubic_star_spec,
    make_triangle_pendant_graph,
    random_coercive_spec,
    random_dirichlet,
    random_graph,
    random_power_spec,
    random_star_spec,
    scalar_equation,
)

_cache: dict = {}


def report(name, ok, elapsed, budget, detail=""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def triangle_instance(m_of_i):
    g = make_triangle_pendant_graph(a=1.0)
    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    q = Potential(g, {f"x{i}": float(np.exp(i + 31)) for i in range(1, 4)})
    m = {f"x{i}": float(m_of_i(i)) for i in range(1, 4)}
    phi = {f"x{i}": float(3 * i - 1) for i in range(1, 4)}
    psi = {f"x{i}": float(i) for i in range(1, 4)}
    return ProblemSpec(graph=g, p=p, q=q, f=ArctanPower(g, m=m, phi=phi, psi=psi),
                       lam=1e-4)


def scalar_suite():
    """100 one-interior-vertex instances with oracle root sets, solved once."""
    if "scalar" not in _cache:
        rng = np.random.default_rng(2024)
        rows = []
        for k in range(100):
            spec, roots = random_star_spec(rng)
            rep = solve(spec, SolverOptions(restarts=3, rng_seed=k))
            rows.append((spec, roots, rep))
        _cache["scalar"] = rows
    return _cache["scalar"]


def cubic_result():
    if "cubic" not in _cache:
        spec = cubic_star_spec(lam=0.4)
        _cache["cubic"] = (spec, solve(spec, SolverOptions(restarts=3, rng_seed=0)))
    return _cache["cubic"]


def test_ac01_gamma0_benchmark():
    t0 = time.time()
    spec = triangle_instance(lambda i: 2 * i * i)
    th = lambda_thresholds(instance_constants(spec))
    exact = 6.0 * math.sqrt(6.0)
    ok = abs(th.gamma0 - exact) < 1e-12 and abs(th.gamma0 - 14.697) < 5e-4
    report("AC1 gamma0 benchmark", ok, time.time() - t0, 1.0,
           f"gamma0={th.gamma0:.6f}")


def test_ac02_regime_benchmark():
    t0 = time.time()
    base = triangle_instance(lambda i: 2 * i * i)
    steep = triangle_instance(lambda i: 10 * i)
    cb = instance_constants(base)
    cs = instance_constants(steep)
    rb = classify_regime(cb, base.lam)
    rs = classify_regime(cs, steep.lam)
    ok = (cb.m1_plus == 18.0 and cb.p_minus == 4.0 and rb.has(RegimeTag.EKELAND)
          and cs.m1_minus == 10.0 and cs.pbar_plus == 9.0
          and rs.has(RegimeTag.TWO_SOLUTIONS))
    report("AC2 regime benchmark", ok, time.time() - t0, 1.0,
           f"base={rb.sorted_names()} steep={rs.sorted_names()}")


def test_ac03_inequality_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(3001)
    items = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")
    failures = []
    for k in range(1000):
        spec = random_power_spec(rng, n_max=12)
        u = random_dirichlet(rng, spec.graph, -3.0, 3.0)
        m = float(rng.uniform(2.0, 8.0))
        for item in items:
            lhs, rhs, holds = check_inequality(item, spec, u, m)
            if not holds:
                failures.append((k, item, lhs, rhs))
        _, up, um = norm_and_parts(u)
        if not (np.array_equal(u.values, up.values - um.values)
                and np.array_equal(np.abs(u.values), up.values + um.values)
                and np.all(up.values * um.values == 0.0)):
            failures.append((k, "splitting", None, None))
        du = u.values[None, :] - u.values[:, None]
        dup = up.values[None, :] - up.values[:, None]
        dum = um.values[None, :] - um.values[:, None]
        if not (np.all(du * dum <= 0.0) and np.all(dup * dum <= 0.0)
                and np.all(np.abs(dum) <= np.abs(du))):
            failures.append((k, "pairwise-sign", None, None))
    report("AC3 inequality fuzz (1000 draws)", not failures, time.time() - t0, 30.0,
           f"failures={failures[:3]}")


def test_ac04_pairing_identity():
    t0 = time.time()
    rng = np.random.default_rng(3002)
    worst = 0.0
    for _ in range(100):
        g = random_graph(rng, 12)
        p = ExponentField.constant(g, float(rng.uniform(2.0, 6.0)))
        u = VertexFunction(g, rng.uniform(-2, 2, g.n_vertices))
        v = VertexFunction(g, rng.uniform(-2, 2, g.n_vertices))
        lhs, rhs = green_pairing(g, p, u, v)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report("AC4 pairing identity (100 draws)", worst <= 1e-10, time.time() - t0, 5.0,
           f"worst={worst:.2e}")


def test_ac05_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(3003)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        spec = random_power_spec(rng, p_range=(2.0, 6.0))
        g = spec.graph
        u = random_dirichlet(rng, g, -2.0, 2.0)
        grad = gradient_residual(spec, u).interior()
        for i in range(g.n_interior):
            vp = u.interior().copy(); vp[i] += h
            vm = u.interior().copy(); vm[i] -= h
            fd = (energy_value(spec, DirichletFunction.from_interior(g, vp))
                  - energy_value(spec, DirichletFunction.from_interior(g, vm))) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(fd), abs(grad[i])))
    report("AC5 gradient vs finite differences (200 draws)", worst <= 1e-5,
           time.time() - t0, 30.0, f"worst={worst:.2e}")


def test_ac06_scalar_oracle_equivalence():
    t0 = time.time()
    mismatches = []
    for k, (spec, roots, rep) in enumerate(scalar_suite()):
        got = sorted(pt.u.value(spec.graph.interior[0]) for pt in rep.solutions)
        if len(got) != len(roots) or any(abs(a - b) > 1e-6 for a, b in zip(got, roots)):
            mismatches.append((k, roots, got))
    report("AC6 scalar oracle equivalence (100 instances)", not mismatches,
           time.time() - t0, 30.0, f"mismatches={mismatches[:2]}")


def test_ac07_two_solution_benchmark():
    t0 = time.time()
    spec, rep = cubic_result()
    roots = bisect_roots(scalar_equation(spec))
    got = sorted(pt.u.value("v1") for pt in rep.solutions)
    ok = (len(roots) == 2 and len(got) == 2
          and abs(got[0] - roots[0]) <= 1e-6 and abs(got[1] - roots[1]) <= 1e-6)
    saddle = max(rep.solutions, key=lambda pt: pt.value)
    low = min(rep.solutions, key=lambda pt: pt.value)
    hill_like = energy_value(spec, DirichletFunction.from_interior(spec.graph, [4.0]))
    ok = ok and saddle.kind == "Saddle" and saddle.value > low.value
    ok = ok and saddle.value > hill_like
    ok = ok and all(pt.positive_on_S for pt in rep.solutions)
    report("AC7 two-solution benchmark", ok, time.time() - t0, 10.0,
           f"roots={[f'{r:.8f}' for r in roots]} got={[f'{v:.8f}' for v in got]}")


def test_ac08_positivity_certificates():
    t0 = time.time()
    bad = []
    checked = 0
    for k, (spec, roots, rep) in enumerate(scalar_suite()):
        for pt in rep.solutions:
            checked += 1
            cert = verify_positive(spec, pt.u)
            if not cert.passed or pt.residual_orig is None or pt.residual_orig > 1e-8:
                bad.append(("scalar", k, pt.residual_orig))
    spec, rep = cubic_result()
    for pt in rep.solutions:
        checked += 1
        cert = verify_positive(spec, pt.u)
        if not cert.passed or pt.residual_orig > 1e-8:
            bad.append(("cubic", pt.residual_orig))
    rng = np.random.default_rng(3004)
    for k in range(20):
        cspec = random_coercive_spec(rng)
        crep = solve(cspec, SolverOptions(restarts=3, rng_seed=k))
        if len(crep.solutions) != 1:
            bad.append(("coercive-count", k, len(crep.solutions)))
            continue
        pt = crep.solutions[0]
        checked += 1
        cert = verify_positive(cspec, pt.u)
        if not cert.passed or pt.residual_orig is None or pt.residual_orig > 1e-8:
            bad.append(("coercive", k, pt.residual_orig))
    report("AC8 positivity certificates", not bad, time.time() - t0, 60.0,
           f"solutions checked={checked} bad={bad[:3]}")


def _mp_thresholds(c, gamma, lam, lam_sphere):
    mp.dps = 60
    S, dS, Sbar = mpf(c.n_interior), mpf(c.n_boundary), mpf(c.n_vertices)
    pm, pp = mpf(c.p_minus), mpf(c.p_plus)
    qm, qp = mpf(c.q_minus), mpf(c.q_plus)
    m1p = mpf(c.m1_plus)
    m2m, m2p = mpf(c.m2_minus), mpf(c.m2_plus)
    phi1, phi2 = mpf(c.phi1_min), mpf(c.phi2_max)
    psi1, psi2 = mpf(c.psi1_min), mpf(c.psi2_max)
    om = mpf(c.max_weight)
    two = mpf(2)
    lambda1 = (qm / pp) * two ** (-pm / 2) * dS ** (pm / 2) * Sbar ** (1 - pm) \
        / ((phi2 / m2m + psi2 * msqrt(Sbar)) * S)
    lambda2 = (qm / pp) * two ** (-pp / 2) * dS ** (pp / 2) * Sbar ** (1 - pp) \
        * Sbar ** (-pp / 2) / ((phi2 / m2m * Sbar ** (-m2m / 2) + psi2) * S)
    gamma0 = msqrt(two) * msqrt(dS) * Sbar
    gam = mpf(gamma)
    lambda3 = qm * (two ** (-pm / 2) * dS ** (pm / 2) * Sbar ** (1 - pm)
                    * gam ** pm - S) \
        / ((phi2 * gam ** m2p + phi2 + psi2 * msqrt(Sbar) * gam) * S)
    t0num = 2 * mpf(lam) * (phi1 / m1p + psi1) * pm
    t0den = om * (2 * c.n_interior + c.n_boundary - 1) + 2 * qp
    t0 = min(mpf(1), (t0num / t0den) ** (1 / (pm - m1p)))
    # J on the sphere of radius rho: (a.3) with m = p+ against the F-envelope
    rho = Sbar ** mpf(-0.5)
    sphere = (qm / pp) * two ** (-pp / 2) * dS ** (pp / 2) * Sbar ** (1 - pp) * rho ** pp \
        - mpf(lam_sphere) * S * (phi2 / m2m * rho ** m2m + psi2)
    return lambda1, lambda2, gamma0, lambda3, t0, sphere


def test_ac09_thresholds_vs_high_precision():
    t0 = time.time()
    rng = np.random.default_rng(3005)
    worst = 0.0
    n_checked = 0
    while n_checked < 50:
        spec = random_power_spec(rng, n_max=10)
        c = instance_constants(spec)
        if c.p_minus == c.m1_plus:
            continue
        th = lambda_thresholds(c)
        gamma = th.gamma0 * float(rng.uniform(1.05, 5.0))
        lam_sphere = 0.9 * th.lambda2 * (n_checked + 1) / 51  # spans (0, 0.9 lambda2)
        vals = (th.lambda1, th.lambda2, th.gamma0, th.lambda3(gamma), th.t0(spec.lam),
                th.sphere_lower_bound(lam_sphere))
        refs = _mp_thresholds(c, gamma, spec.lam, lam_sphere)
        for got, ref in zip(vals, refs):
            rel = abs(mpf(got) - ref) / abs(ref)
            worst = max(worst, float(rel))
        n_checked += 1
    # the printed benchmark values from the source instance are recorded as
    # non-binding comparisons only:
    doc = json.loads(open(fixture_path("triangle_pendant_steep.json")).read())
    notes = doc.get("reference_thresholds", {})
    report("AC9 threshold formulas vs 60-digit evaluation (50 instances)",
           worst <= 1e-12, time.time() - t0, 60.0,
           f"worst={worst:.2e}; non-binding file references={notes}")


def test_ac10_deterministic_reports():
    t0 = time.time()
    cmd = [sys.executable, "-m", "plap", "solve", str(fixture_path("cubic_path.json")),
           "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.returncode == 0 and a.stdout == b.stdout and a.stdout
    report("AC10 byte-identical reports", bool(ok), time.time() - t0, 60.0,
           f"bytes={len(a.stdout)}")
