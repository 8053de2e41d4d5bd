"""Stacked evaluation and lock-step descents against their one-vector forms.

``EvaluationKernel.energy``/``.gradient`` on a (K, n) stack run the same
formulas as K single calls, and ``descend_all`` runs the same descents as K
calls to ``descend``.  The results are bit-identical wherever numpy runs the
same floating-point loop for a row of the stack as for a single vector.  It
does not when a row holds one value (n = 1): a length-1 row of a stack is a
strided loop, which numpy's power evaluates with the scalar libm routine,
while a length-1 vector takes the SIMD routine, and the two can differ in the
last bit (0.0333...**2 is 0.0011119352250093186 against ...188).  There the
tests allow ROUND relative to the size of the terms, and for descents the
same stopping decisions with converged points within 1e-6.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap import (
    Annulus,
    Ball,
    CustomNonlinearity,
    DirichletFunction,
    ProblemSpec,
    SolverOptions,
    descend,
    descend_all,
    fixture_path,
    parse_problem,
)
from plap.energy import EvaluationKernel
from plap.errors import InfeasibleStart

from conftest import problem_specs

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
@given(specs(), st.integers(2, 5), st.booleans())
def test_lock_step_descents_match_single_descents(spec, k, annulus):
    # Bounded constraints: on some generated instances J is unbounded below.
    opts = SolverOptions(max_iter=300)
    stack = _stack(spec, k)
    norms = np.sqrt((stack * stack).sum(axis=1))[:, None]
    if annulus:
        constraint, starts = Annulus(1.0, 2.0), stack * (1.5 / norms)
    else:
        constraint, starts = Ball(1.0), stack * (0.9 / norms.max())
    batch = descend_all(spec, list(starts), constraint, opts)
    assert len(batch) == k
    for start, pt in zip(starts, batch):
        one = descend(spec, DirichletFunction.from_interior(spec.graph, start), constraint, opts)
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


def _count_kernel_calls(monkeypatch):
    """The array shape of every J and grad J call, by kind."""
    calls = {"energy": [], "gradient": []}
    for name, shapes in calls.items():
        method = getattr(EvaluationKernel, name)

        def counting(kernel, v, method=method, shapes=shapes):
            shapes.append(v.shape)
            return method(kernel, v)

        monkeypatch.setattr(EvaluationKernel, name, counting)
    return calls


def test_one_batched_call_of_each_kind_per_round(monkeypatch):
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    starts = list(_stack(spec, 6))
    calls = _count_kernel_calls(monkeypatch)
    singles = []
    for s in starts:
        descend(spec, DirichletFunction.from_interior(spec.graph, s))
        singles.append(sum(map(len, calls.values())))
        calls["energy"].clear(), calls["gradient"].clear()
    # a single start never stacks
    descend(spec, DirichletFunction.from_interior(spec.graph, starts[0]))
    assert {len(shape) for shapes in calls.values() for shape in shapes} == {1}
    calls["energy"].clear(), calls["gradient"].clear()
    descend_all(spec, starts)
    # every round answers all lanes with at most one call of each kind, and
    # there are no more rounds than the longest descent has requests
    for shapes in calls.values():
        assert len(shapes) <= max(singles)
    assert (6, spec.graph.n_interior) in calls["energy"]


def test_descend_all_checks_every_start_before_evaluating(monkeypatch):
    spec = parse_problem(fixture_path("triangle_pendant.json"))
    calls = _count_kernel_calls(monkeypatch)
    starts = [np.zeros(3), np.full(3, 2.0)]
    with pytest.raises(InfeasibleStart):
        descend_all(spec, starts, Ball(1.0))
    assert calls == {"energy": [], "gradient": []}
    assert descend_all(spec, []) == []
