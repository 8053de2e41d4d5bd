"""Stacked evaluation and lock-step descents against their one-vector forms.

``EvaluationKernel.energy``/``.gradient``/``.energy_gradient`` on a (K, n)
stack run the same formulas as K single calls, ``energy_gradient`` gives the
values of ``energy`` and ``gradient`` from one pass, and ``descend_all`` on K
starts runs the same descents as K one-start calls.  The results are
bit-identical wherever numpy runs the same floating-point loop for a row of
the stack as for a single vector.  It does not when a row holds one value
(n = 1): a length-1 row of a stack is a strided loop, which numpy's power
evaluates with the scalar libm routine, while a length-1 vector takes the
SIMD routine, and the two can differ in the last bit (0.0333...**2 is
0.0011119352250093186 against ...188).  There the tests allow ROUND
relative to the size of the terms, and for descents the same stopping
decisions with converged points within 1e-6.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plap.solver
from plap import (
    ArctanPower,
    CustomNonlinearity,
    ExponentField,
    Potential,
    ProblemSpec,
    SolverOptions,
    descend_all,
    fixture_path,
    parse_problem,
)
from plap.energy import EvaluationKernel
from plap.errors import InfeasibleStart

from conftest import direct_grid, make_triangle_pendant_graph, problem_specs

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
ROUND = 1e-14


@st.composite
def specs(draw):
    """``problem_specs`` (per-vertex p, power_plus or arctan_power), or the
    same instance with a custom f(x, t) = psi(x) + phi(x) t^(m(x)-1) whose
    primitive comes from quadrature."""
    spec = draw(problem_specs())
    if not draw(st.booleans()):
        return spec
    g = spec.graph
    phi, m, psi = (dict(zip(g.interior, a)) for a in (spec.f.phi, spec.f.m, spec.f.psi))
    f = CustomNonlinearity(g, lambda x, t: psi[x] + phi[x] * t ** (m[x] - 1.0))
    return ProblemSpec(g, spec.p, spec.q, f, spec.lam)


def _stack(spec, k):
    rng = np.random.default_rng(k)
    return rng.uniform(-0.5, 1.5, (k, spec.graph.n_interior))


def _terms_size(kernel, v):
    return 1.0 + sum(abs(t) for t in kernel.terms(kernel.full(v)))


@SETTINGS
@given(specs(), st.integers(2, 6))
def test_stacked_kernel_calls_match_single_calls(spec, k):
    kernel = spec._kernel
    stack = _stack(spec, k)
    energies, gradients = kernel.energy(stack), kernel.gradient(stack)
    assert energies.shape == (k,) and gradients.shape == stack.shape
    for row, J, g in zip(stack, energies, gradients):
        J1, g1 = kernel.energy(row), kernel.gradient(row)
        if spec.graph.n_interior > 1:
            assert J == J1 and g.tobytes() == g1.tobytes()
        else:
            size = _terms_size(kernel, row)
            assert abs(J - J1) <= ROUND * size
            assert np.abs(g - g1).max() <= ROUND * size


@SETTINGS
@given(specs(), st.integers(1, 6))
def test_fused_pass_matches_energy_and_gradient(spec, k):
    kernel = spec._kernel
    stack = _stack(spec, k)
    stack[0, 0] = -0.25  # the source's linear continuation below zero
    energies, gradients = kernel.energy_gradient(stack)
    assert energies.shape == (k,) and gradients.shape == stack.shape
    assert energies.tobytes() == kernel.energy(stack).tobytes()
    assert gradients.tobytes() == kernel.gradient(stack).tobytes()
    for row, J, g in zip(stack, energies, gradients):
        J1, g1 = kernel.energy_gradient(row)
        assert J1 == kernel.energy(row) and g1.tobytes() == kernel.gradient(row).tobytes()
        if spec.graph.n_interior > 1:
            assert J == J1 and g.tobytes() == g1.tobytes()
        else:
            size = _terms_size(kernel, row)
            assert abs(J - J1) <= ROUND * size
            assert np.abs(g - g1).max() <= ROUND * size


def test_fused_pass_gives_nan_where_the_primitive_has_no_value():
    # (t + 1)^6 overflows near t = 1e51: F's quadrature fails in that row
    # alone, J is NaN there, and no RuntimeWarning is raised.
    g = make_triangle_pendant_graph()
    f = ArctanPower(g, m=5.0, phi=1.0, psi=1.0)
    kernel = ProblemSpec(g, ExponentField.constant(g, 2.0), Potential.constant(g, 1.0),
                         f, 0.5)._kernel
    far, near = np.array([1e52, 0.2, 0.3]), np.array([0.1, -0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        J, grad = kernel.energy_gradient(far)
        energies, gradients = kernel.energy_gradient(np.stack([far, near]))
    assert np.isnan(J) and grad.tobytes() == kernel.gradient(far).tobytes()
    assert np.isnan(energies[0]) and energies[1] == kernel.energy(near)
    assert gradients.tobytes() == kernel.gradient(np.stack([far, near])).tobytes()


@SETTINGS
@given(specs(), st.integers(2, 5))
def test_lock_step_descents_match_single_descents(spec, k):
    # A bounded constraint: on some generated instances J is unbounded below.
    opts = SolverOptions(max_iter=300)
    stack = _stack(spec, k)
    norms = np.sqrt((stack * stack).sum(axis=1))[:, None]
    radius, starts = 1.0, stack * (0.9 / norms.max())
    batch = descend_all(spec, list(starts), radius, opts)
    assert len(batch) == k
    for start, pt in zip(starts, batch):
        one = descend_all(spec, [start], radius, opts)[0]
        if spec.graph.n_interior > 1:
            assert pt.u.values.tobytes() == one.u.values.tobytes()
            assert (pt.value, pt.residual_inf, pt.grad_inf, pt.converged, pt.iterations) == \
                (one.value, one.residual_inf, one.grad_inf, one.converged, one.iterations)
        else:
            assert pt.converged == one.converged
            if one.converged:
                assert abs(pt.value - one.value) <= ROUND * _terms_size(spec._kernel,
                                                                         one.u.interior())
                assert np.abs(pt.u.values - one.u.values).max() <= 1e-6


KINDS = ("energy", "gradient", "energy_gradient")


def _on_kernel_calls(monkeypatch, record):
    """Call record(kind, v) before every J, grad J and fused kernel call."""
    for name in KINDS:
        method = getattr(EvaluationKernel, name)

        def recording(kernel, v, method=method, name=name):
            record(name, v)
            return method(kernel, v)

        monkeypatch.setattr(EvaluationKernel, name, recording)


def _count_kernel_calls(monkeypatch):
    """The array shape of every J, grad J and fused call, by kind."""
    calls = {name: [] for name in KINDS}
    _on_kernel_calls(monkeypatch, lambda name, v: calls[name].append(v.shape))
    return calls


def _clear(calls):
    for shapes in calls.values():
        shapes.clear()


def test_one_batched_call_of_each_kind_per_round(monkeypatch):
    # Every round is one fused call on the stack of the running descents;
    # J alone and grad J alone are never asked for.
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    n = spec.graph.n_interior
    starts = list(_stack(spec, 6))
    calls = _count_kernel_calls(monkeypatch)
    singles = []
    for s in starts:
        descend_all(spec, [s])
        # a single start never stacks
        assert set(calls["energy_gradient"]) == {(n,)}
        singles.append(len(calls["energy_gradient"]))
        _clear(calls)
    descend_all(spec, starts)
    assert calls["energy"] == [] and calls["gradient"] == []
    # round r answers the r-th point of every descent with more than r points;
    # the last descent running goes on alone, without a stack
    live = [sum(count > r for count in singles) for r in range(max(singles))]
    assert live[0] == 6
    assert calls["energy_gradient"] == [(k, n) if k > 1 else (n,) for k in live]


def test_descend_all_checks_every_start_before_evaluating(monkeypatch):
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    calls = _count_kernel_calls(monkeypatch)
    starts = [np.zeros(3), np.full(3, 2.0)]
    with pytest.raises(InfeasibleStart):
        descend_all(spec, starts, 1.0)
    assert calls == {name: [] for name in KINDS}
    assert descend_all(spec, []) == []


def test_descent_evaluates_each_accepted_point_in_one_kernel_call(monkeypatch):
    # Every point the descent evaluates is its start or a trial, accepted or
    # rejected, and each costs one fused call: J and grad J together.
    spec = direct_grid(16, 0, 0)
    points, trials = [], []
    _on_kernel_calls(monkeypatch, lambda name, v: points.append((name, v.tobytes())))
    project = plap.solver._project

    def counting(radius, v):  # the start and every trial pass through here
        trials.append(None)
        return project(radius, v)

    monkeypatch.setattr(plap.solver, "_project", counting)
    pt = descend_all(spec, [np.zeros(spec.graph.n_interior)])[0]
    assert pt.converged
    rejected = len(trials) - 1 - pt.iterations
    assert rejected > 0
    assert len(points) == 1 + pt.iterations + rejected
    assert {name for name, _ in points} == {"energy_gradient"}
    assert len({x for _, x in points}) == len(points)
