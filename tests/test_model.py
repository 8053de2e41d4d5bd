import math
import re
import time
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from plap import (
    ArctanPower,
    CustomNonlinearity,
    ExponentField,
    GrowthEnvelope,
    Potential,
    PowerPlus,
    Nonlinearity,
    ProblemSpec,
    build_graph,
    check_envelope,
    eval_f,
    instance_constants,
    primitive_F,
)
from plap.errors import DomainError, InvariantError, NegativeArgument

from conftest import (
    make_path_graph,
    make_triangle_pendant_graph,
    random_power_spec,
    shuffled_path_input,
)


def triangle_fields(graph, m_of_i):
    m = {f"x{i}": float(m_of_i(i)) for i in range(1, 4)}
    phi = {f"x{i}": float(3 * i - 1) for i in range(1, 4)}
    psi = {f"x{i}": float(i) for i in range(1, 4)}
    return m, phi, psi


def test_exponent_field_extrema():
    g = make_triangle_pendant_graph()
    p = ExponentField(g, {f"x{i}": float(i + 3) for i in range(1, 7)})
    f = PowerPlus(g, phi=1.0, m=2.0, psi=1.0)
    c = instance_constants(ProblemSpec(g, p, Potential.constant(g, 1.0), f, 1.0))
    assert c.p_minus == 4.0
    assert c.p_plus == 6.0
    assert c.pbar_minus == 4.0
    assert c.pbar_plus == 9.0


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


def _violations_point_by_point(f, grid):
    # The scan one point at a time over the same values and bounds: per
    # vertex, f then F, per t, lower first.
    env, out = f.envelope, []
    sub = grid[::8] if grid.size > 16 else grid
    for i, x in enumerate(f.graph.interior):
        checks = (
            ("f", 1e-12, grid, f._rate(i, grid),
             env.psi1[i] + env.phi1[i] * grid ** (env.m1[i] - 1.0),
             env.phi2[i] * grid ** (env.m2[i] - 1.0) + env.psi2[i]),
            ("F", 1e-8, sub, f._primitive(i, sub),
             env.psi1[i] * sub + env.phi1[i] / env.m1[i] * sub ** env.m1[i],
             env.phi2[i] / env.m2[i] * sub ** env.m2[i] + env.psi2[i] * sub),
        )
        for which, slack, ts, values, lower, upper in checks:
            for t, v, lo, up in zip(ts, values, lower, upper):
                if v < lo - slack * (1.0 + abs(lo)):
                    out.append((f"{which}_lower", x, float(t), float(v), float(lo)))
                if v > up + slack * (1.0 + abs(up)):
                    out.append((f"{which}_upper", x, float(t), float(v), float(up)))
    return out


@pytest.mark.parametrize("kind", ["power_plus", "arctan_power"])
def test_envelope_report_matches_a_point_by_point_scan(kind):
    g = make_triangle_pendant_graph()
    m, phi, psi = triangle_fields(g, lambda i: i + 1.5)
    f = PowerPlus(g, phi=phi, m=m, psi=psi) if kind == "power_plus" \
        else ArctanPower(g, m=m, phi=phi, psi=psi)
    # Offsets above f(x, 0) break the lower bounds near 0, and half the
    # slope breaks the upper bounds at large t, on every vertex.
    offset = f._rate(np.arange(3), np.zeros(3)) + 20.0
    f.envelope = GrowthEnvelope(g, m1=m, m2=m, phi1=phi, phi2=0.5 * f.phi,
                                psi1=offset, psi2=offset)
    got = [(v.which, v.vertex, v.t, v.value, v.bound) for v in check_envelope(f).violations]
    assert got == _violations_point_by_point(f, np.linspace(0.0, 20.0, 512))
    assert {(w, x) for w, x, *_ in got} == {(w, x) for w in ("f_lower", "f_upper", "F_lower",
                                                                "F_upper") for x in g.interior}


def interior_path(k):
    """x1 .. xk in a row between the boundary vertices x0 and x(k+1)."""
    labels = [f"x{i}" for i in range(k + 2)]
    return build_graph(labels[1:-1], [labels[0], labels[-1]],
                       [(a, b, 1.0) for a, b in zip(labels, labels[1:])])


@pytest.mark.parametrize("kind", ["power_plus", "arctan_power"])
def test_envelope_check_per_distinct_row_matches_the_per_vertex_scan(kind):
    g = interior_path(8)
    # (m, phi, psi) rows: x1 = x4 = x7, x2 = x5, and x3, x6, x8 alone.
    m = [3.0, 2.5, 4.0, 3.0, 2.5, 3.5, 3.0, 2.2]
    phi = [1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0]
    psi = [0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 2.0]
    f = PowerPlus(g, phi=phi, m=m, psi=psi) if kind == "power_plus" \
        else ArctanPower(g, m=m, phi=phi, psi=psi)
    # Half the slope breaks the upper bounds at x2, x4 and x5, and a raised
    # offset the lower bound at x8.  x4 shares its parameters with x1 and x7
    # but not its envelope row.
    env = f.envelope
    phi2 = np.where(np.isin(np.arange(8), [1, 3, 4]), 0.5, 1.0) * env.phi2
    psi1 = env.psi1 + np.where(np.arange(8) == 7, 10.0, 0.0)
    f.envelope = GrowthEnvelope(g, m1=env.m1, m2=env.m2, phi1=env.phi1, phi2=phi2,
                                psi1=psi1, psi2=env.psi2)
    checked, rate = [], f._rate

    def counted(i, t):
        if isinstance(i, int):  # check_envelope's own calls, not the quadrature's
            checked.append(i)
        return rate(i, t)

    f._rate = counted
    got = [(v.which, v.vertex, v.t, v.value, v.bound) for v in check_envelope(f).violations]
    del f._rate
    assert sorted(checked) == [0, 1, 2, 3, 5, 7]  # each row at its first vertex
    assert got == _violations_point_by_point(f, np.linspace(0.0, 20.0, 512))
    assert {x for _, x, *_ in got} == {"x2", "x4", "x5", "x8"}


class LabelBump(Nonlinearity):
    """f(x, t) = 1 + t, plus 10 at x3: f reads the label, and ``_params``
    stays empty, the same for every vertex."""

    def _rate(self, i, t):
        return 1.0 + t + 10.0 * (np.array(self.graph.interior)[i] == "x3")


@pytest.mark.parametrize("make", [
    lambda g, env: LabelBump(g, env),
    lambda g, env: CustomNonlinearity(g, lambda x, t: 1.0 + t + 10.0 * (x == "x3"), env),
], ids=["empty-params", "custom"])
def test_envelope_check_of_a_label_dependent_f_flags_only_its_vertex(make):
    g = interior_path(4)
    f = make(g, GrowthEnvelope(g, m1=2.0, m2=2.0, phi1=1.0, phi2=1.0, psi1=1.0, psi2=1.0))
    grid = np.linspace(0.0, 20.0, 64)
    got = [(v.which, v.vertex, v.t, v.value, v.bound) for v in check_envelope(f, grid).violations]
    assert got == _violations_point_by_point(f, grid)
    assert {x for _, x, *_ in got} == {"x3"}
    assert {w for w, *_ in got} == {"f_upper", "F_upper"}


def test_map_field_over_20000_vertices_validates_in_well_under_a_second():
    interior, boundary, edges = shuffled_path_input(20_002)
    g = build_graph(interior, boundary, edges)
    q = {v: 1.0 + k % 3 for k, v in enumerate(reversed(interior))}
    t0 = time.perf_counter()
    values = Potential(g, q).values
    elapsed = time.perf_counter() - t0
    assert values.tolist() == [q[v] for v in g.interior]
    assert elapsed < 0.25, f"a 20,000-vertex map took {elapsed:.2f} s"
    q = {"zz": 1.0, **q, boundary[0]: 1.0, "aa": 1.0}
    with pytest.raises(InvariantError, match=re.escape(
            f"q: unknown vertices ['zz', '{boundary[0]}', 'aa']")):
        Potential(g, q)


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


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_problem_spec_requires_finite_lambda(lam):
    g = make_path_graph()
    with pytest.raises(InvariantError, match="finite"):
        ProblemSpec(graph=g, p=ExponentField.constant(g, 2.0),
                    q=Potential.constant(g, 1.0),
                    f=PowerPlus(g, 1.0, 2.0, 1.0), lam=lam)


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


# -- per-vertex fields: finite and in range, read-only ------------------------

_ENVELOPE = ("m1", "m2", "phi1", "phi2", "psi1", "psi2")


def _build(kind, **fields):
    """The object of ``kind`` on the triangle-pendant graph, every field in
    range unless given."""
    g = make_triangle_pendant_graph()
    if kind == "ExponentField":
        return ExponentField(g, fields.get("p", 3.0))
    if kind == "Potential":
        return Potential(g, fields.get("q", 1.0))
    if kind == "GrowthEnvelope":
        return GrowthEnvelope(g, **{k: fields.get(k, 3.0 if k[0] == "m" else 1.0)
                                    for k in _ENVELOPE})
    nl = PowerPlus if kind == "PowerPlus" else ArctanPower
    return nl(g, m=fields.get("m", 3.0), phi=fields.get("phi", 1.0), psi=fields.get("psi", 1.0))


# (kind, field, attribute, value in range, value out of range)
_FIELDS = [
    ("ExponentField", "p", "values", 3.0, 1.5),
    ("Potential", "q", "values", 1.0, 0.0),
    ("PowerPlus", "phi", "phi", 1.0, -1.0),
    ("PowerPlus", "m", "m", 3.0, 1.5),
    ("PowerPlus", "psi", "psi", 1.0, 0.0),
    ("ArctanPower", "m", "m", 3.0, 1.5),
    ("ArctanPower", "phi", "phi", 1.0, 0.0),
    ("ArctanPower", "psi", "psi", 1.0, 0.0),
] + [("GrowthEnvelope", k, k, 3.0 if k[0] == "m" else 1.0, 1.5 if k[0] == "m" else 0.0)
     for k in _ENVELOPE]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "out of range"])
@pytest.mark.parametrize("kind, name, attr, good, out", _FIELDS,
                         ids=[f"{c[0]}.{c[1]}" for c in _FIELDS])
def test_a_non_finite_or_out_of_range_field_value_names_its_vertex(kind, name, attr, good,
                                                                   out, bad):
    labels = make_triangle_pendant_graph().vertices if name == "p" else ("x1", "x2", "x3")
    vertex = labels[-2]  # a later vertex, so the message must find it
    values = {x: good for x in labels}
    values[vertex] = out if bad == "out of range" else float(bad)
    with pytest.raises(InvariantError, match=rf"^{name}\({vertex}\) = "):
        _build(kind, **{name: values})


@pytest.mark.parametrize("kind, name, attr, good, out", _FIELDS,
                         ids=[f"{c[0]}.{c[1]}" for c in _FIELDS])
def test_every_per_vertex_array_is_read_only(kind, name, attr, good, out):
    obj = _build(kind)
    arrays = [getattr(obj, attr)]
    if kind in ("PowerPlus", "ArctanPower"):
        arrays += [getattr(obj.envelope, k) for k in _ENVELOPE]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = good


@pytest.mark.parametrize("build", [
    lambda g: ExponentField.constant(g, math.nan),
    lambda g: Potential.constant(g, math.inf),
    lambda g: PowerPlus(g, 1.0, 4.0, math.nan),
    lambda g: PowerPlus(g, math.inf, 4.0, 1.0),
    lambda g: GrowthEnvelope(g, m1=[2.0], m2=[2.0], phi1=[math.nan], phi2=[1.0],
                             psi1=[1.0], psi2=[1.0]),
], ids=["p nan", "q inf", "power_plus psi nan", "power_plus phi inf", "envelope phi1 nan"])
def test_non_finite_constants_are_rejected(build):
    with pytest.raises(InvariantError, match=r"\(v1\) = "):
        build(make_path_graph())
