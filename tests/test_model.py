import math
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from plap import (
    ArctanPower,
    ExponentField,
    GrowthEnvelope,
    Potential,
    PowerPlus,
    ProblemSpec,
    check_envelope,
    eval_f,
    instance_constants,
    primitive_F,
)
from plap.errors import DomainError, InvariantError, NegativeArgument

from conftest import make_path_graph, make_triangle_pendant_graph, random_power_spec


def triangle_fields(graph, m_of_i):
    m = {f"x{i}": float(m_of_i(i)) for i in range(1, 4)}
    phi = {f"x{i}": float(3 * i - 1) for i in range(1, 4)}
    psi = {f"x{i}": float(i) for i in range(1, 4)}
    return m, phi, psi


def test_exponent_field_extrema():
    g = make_triangle_pendant_graph()
    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    assert p.p_minus == 4.0
    assert p.p_plus == 6.0
    assert p.pbar_minus == 4.0
    assert p.pbar_plus == 9.0


def test_exponent_field_rejects_small_values():
    g = make_path_graph()
    with pytest.raises(InvariantError, match=r"violates p"):
        ExponentField(g, {"v0": 2.0, "v1": 1.5, "v2": 2.0})


def test_potential_rejects_nonpositive():
    g = make_path_graph()
    with pytest.raises(InvariantError):
        Potential(g, [0.0])


def test_power_plus_evaluation():
    g = make_path_graph()
    f = PowerPlus(g, phi=2.0, m=3.0, psi=1.0)
    assert eval_f(f, "v1", 2.0) == 9.0
    assert primitive_F(f, "v1", 2.0) == pytest.approx(22.0 / 3.0, rel=1e-15)
    assert primitive_F(f, "v1", 0.0) == 0.0


def test_negative_argument_rejected():
    g = make_path_graph()
    f = PowerPlus(g, 2.0, 3.0, 1.0)
    with pytest.raises(NegativeArgument):
        eval_f(f, "v1", -0.1)
    with pytest.raises(NegativeArgument):
        primitive_F(f, "v1", -0.1)


def test_arctan_power_at_zero():
    g = make_path_graph()
    for m in (2.0, 5.0, 11.0):
        f = ArctanPower(g, m=m, phi=2.0, psi=1.0)
        assert eval_f(f, "v1", 0.0) == pytest.approx(4.0, rel=1e-15)


def test_arctan_power_lower_bound_on_grid():
    g = make_path_graph()
    m, phi, psi = 3.0, 2.0, 1.0
    f = ArctanPower(g, m=m, phi=phi, psi=psi)
    for t in np.arange(0.0, 10.01, 0.1):
        assert psi + 1.0 + phi * t ** m <= eval_f(f, "v1", float(t)) * (1 + 1e-12)


def test_arctan_power_primitive_matches_rate():
    # fundamental-theorem check via a central difference of F
    g = make_path_graph()
    f = ArctanPower(g, m=4.0, phi=1.5, psi=0.5)
    h = 1e-5
    dF = (primitive_F(f, "v1", 1.0 + h) - primitive_F(f, "v1", 1.0 - h)) / (2 * h)
    assert dF == pytest.approx(eval_f(f, "v1", 1.0), abs=1e-6)


def test_power_plus_quadrature_matches_closed_form():
    from plap.model import Nonlinearity

    g = make_path_graph()
    f = PowerPlus(g, 1.3, 3.7, 0.4)
    for t in np.linspace(0.0, 10.0, 23):
        closed = f._primitive(0, float(t))
        quad = Nonlinearity._primitive(f, 0, float(t))
        assert abs(closed - quad) <= 1e-9


def test_primitive_is_nondecreasing():
    g = make_path_graph()
    f = ArctanPower(g, m=3.0, phi=1.0, psi=1.0)
    ts = np.linspace(0, 5, 40)
    vals = [primitive_F(f, "v1", float(t)) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals[1:])


def test_arctan_power_auto_envelope_clean():
    g = make_triangle_pendant_graph()
    m, phi, psi = triangle_fields(g, lambda i: 2 * i * i)
    f = ArctanPower(g, m=m, phi=phi, psi=psi)
    report = check_envelope(f, np.linspace(0.0, 10.0, 201))
    assert report.passed, report.violations[:3]


def test_power_plus_exact_envelope_clean():
    g = make_path_graph()
    f = PowerPlus(g, 1.0, 4.0, 0.1)
    report = check_envelope(f)
    assert report.passed


def test_check_envelope_detects_bad_offset():
    g = make_path_graph()
    f = PowerPlus(g, 1.0, 4.0, 0.1)
    f.envelope = GrowthEnvelope(g, m1=f.m, m2=f.m, phi1=f.phi, phi2=f.phi,
                                psi1=[0.01], psi2=[0.01])
    report = check_envelope(f, np.linspace(0.0, 1.0, 8))
    kinds = {v.which for v in report.violations}
    assert "f_upper" in kinds
    assert any(v.t == 0.0 for v in report.violations)


def test_one_step_shifted_envelope_is_violated():
    # Declaring m2 = m+1 with offset psi+2 undershoots this nonlinearity at
    # t = 0 whenever phi > 1; check_envelope must flag it.
    g = make_path_graph()
    f = ArctanPower(g, m=3.0, phi=2.0, psi=1.0)
    f.envelope = GrowthEnvelope(
        g, m1=[3.0], m2=[4.0], phi1=[2.0], phi2=[2.0 ** 3 * 3.0],
        psi1=[2.0], psi2=[3.0],
    )
    report = check_envelope(f, np.linspace(0.0, 2.0, 33))
    assert not report.passed
    assert any(v.which == "f_upper" and v.t == 0.0 for v in report.violations)


def test_instance_constants_triangle():
    g = make_triangle_pendant_graph()
    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    q = Potential(g, {f"x{i}": float(np.exp(i + 31)) for i in range(1, 4)})
    m, phi, psi = triangle_fields(g, lambda i: 2 * i * i)
    f = ArctanPower(g, m=m, phi=phi, psi=psi)
    c = instance_constants(ProblemSpec(graph=g, p=p, q=q, f=f, lam=1e-4))
    assert (c.p_minus, c.p_plus, c.pbar_plus) == (4.0, 6.0, 9.0)
    assert (c.m1_minus, c.m1_plus) == (2.0, 18.0)
    assert c.max_weight == 1.0
    assert (c.n_interior, c.n_boundary, c.n_vertices) == (3, 3, 6)


def test_instance_constants_constant_exponent():
    rng = np.random.default_rng(11)
    spec = random_power_spec(rng, constant_p=True, p_range=(2.0, 2.0))
    c = instance_constants(spec)
    assert c.p_minus == c.p_plus == c.pbar_minus == c.pbar_plus == 2.0


def test_rate_positivity_sampled():
    rng = np.random.default_rng(12)
    for _ in range(20):
        spec = random_power_spec(rng)
        ts = rng.uniform(0, 5, 8)
        for x in spec.graph.interior:
            for t in ts:
                assert eval_f(spec.f, x, float(t)) > 0.0


def test_problem_spec_requires_positive_lambda():
    g = make_path_graph()
    with pytest.raises(InvariantError):
        ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                    q=Potential.constant(g, 1.0),
                    f=PowerPlus(g, 1.0, 2.0, 1.0), lam=0.0)


def test_constant_source_has_no_envelope():
    g = make_path_graph()
    f = PowerPlus(g, 0.0, 2.0, 1.0)
    assert f.envelope is None
    with pytest.raises(DomainError):
        check_envelope(f)


def test_growth_envelope_validation():
    g = make_path_graph()
    with pytest.raises(InvariantError):
        GrowthEnvelope(g, m1=[1.5], m2=[2.0], phi1=[1.0], phi2=[1.0],
                       psi1=[1.0], psi2=[1.0])
    with pytest.raises(InvariantError):
        GrowthEnvelope(g, m1=[2.0], m2=[2.0], phi1=[0.0], phi2=[1.0],
                       psi1=[1.0], psi2=[1.0])


def test_quadrature_failure_on_pathological_integrand():
    from plap.model import CustomNonlinearity
    from plap.errors import QuadratureFailure
    g = make_path_graph()
    # a huge jump the bisection cannot localize within its depth budget
    f = CustomNonlinearity(g, lambda x, t: 1e16 if t < 1.0 / 3.0 else 1.0)
    with pytest.raises(QuadratureFailure):
        primitive_F(f, "v1", 1.0)


def test_custom_nonlinearity_with_closed_primitive():
    from plap.model import CustomNonlinearity
    g = make_path_graph()
    f = CustomNonlinearity(g, lambda x, t: 2.0 * t + 1.0,
                           primitive_fn=lambda x, t: t * t + t)
    assert eval_f(f, "v1", 3.0) == 7.0
    assert primitive_F(f, "v1", 3.0) == 12.0


def steep_arctan_power(g):
    m, phi, psi = triangle_fields(g, lambda i: {1: 2, 2: 10, 3: 30}[i])
    return ArctanPower(g, m=m, phi=phi, psi=psi)


def test_arctan_power_primitive_matches_40_digit_quadrature():
    g = make_triangle_pendant_graph()
    f = steep_arctan_power(g)
    worst = 0.0
    with mp.workdps(40):
        for t in (1e-6, 3e-4, 0.4, 1.0, 3.5, 7.0, 12.0):
            got = f.primitive_vector(np.full(3, t))
            T = mpf(t)
            cuts = [mpf(0)] + [k * mp.pi for k in range(1, int(t / math.pi) + 1)] + [T]
            for i in range(3):
                m, phi, psi = (mpf(float(a[i])) for a in (f.m, f.phi, f.psi))

                def rate(s):
                    return ((s + 1) ** (1 - mp.exp(-s * s) + m) * (2 / mp.pi * mp.atan(s) + phi)
                            + abs(mp.sin(s)) + psi + 1)

                ref = mp.quad(rate, cuts)
                worst = max(worst, float(abs((mpf(float(got[i])) - ref) / ref)))
    assert worst <= 2e-14, worst


def test_gauss_legendre_tables_integrate_polynomials_exactly():
    from plap.quadrature import W10, W20, X10, X20
    for x, w in ((X10, W10), (X20, W20)):
        for k in range(2 * len(x)):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.sum(w * x ** k)) - exact) <= 2e-15, (len(x), k)


def test_primitive_F_is_bitwise_the_primitive_vector_entry():
    from plap.model import CustomNonlinearity
    g = make_triangle_pendant_graph()
    custom = CustomNonlinearity(g, lambda x, t: (1.0 + t) ** int(x[1:]) + abs(math.sin(t)))
    # one, two and four panels, two of them bisected; then no panel at all
    for t in (np.array([0.3, 4.0, 11.0]), np.zeros(3)):
        for f in (steep_arctan_power(g), custom):
            vec = f.primitive_vector(t)
            for i, x in enumerate(g.interior):
                assert primitive_F(f, x, float(t[i])) == vec[i]


def test_quadrature_failure_on_non_finite_integrand():
    from plap.model import CustomNonlinearity
    from plap.errors import QuadratureFailure
    g = make_path_graph()
    f = CustomNonlinearity(g, lambda x, t: math.inf if t > 0.9 else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="non-finite"):
            primitive_F(f, "v1", 1.0)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            f.primitive_vector(np.array([2.0]))


def test_array_holding_dataclasses_compare_and_hash_by_identity():
    def build():
        g = make_triangle_pendant_graph()
        p = ExponentField.constant(g, 3.0)
        q = Potential.constant(g, 1.0)
        f = PowerPlus(g, 1.0, 2.5, 0.5)
        return [g, p, q, f.envelope, ProblemSpec(g, p, q, f, 0.4)]

    for a, b in zip(build(), build()):
        assert type(a) is type(b)
        assert a == a and not (a != a)
        assert a != b and not (a == b)  # equal content, other object
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1
