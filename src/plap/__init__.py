"""Discrete p(x)-Laplacian Dirichlet problems on weighted finite graphs.

Library layout:

- ``graphs``: the weighted interior/boundary graph and its validation.
- ``calculus``: the edge flux of the p(x)-Laplacian (one kernel for operator,
  gradient, certificate residual and pairings), integration, norm, splitting.
- ``model``: exponent/potential fields, nonlinearities, growth envelopes.
- ``quadrature``: the primitive F of nonlinearities without a closed form.
- ``energy``: the action functional, exact gradient, solution residuals.
- ``bounds``: norm inequalities, lambda thresholds, regime classification.
- ``solver``: ball-constrained descent, mountain pass, positivity.
- ``problem_io``: JSON problem documents, fixtures, solution parsing.
- ``reporting``: JSON reports, certificates and CSV cells.
- ``cli``: the ``plap`` command.
"""

__version__ = "0.1.0"

from .bounds import (
    LambdaThresholds,
    Regime,
    RegimeTag,
    UniquenessCertificate,
    ball_convexity_certificate,
    check_inequality,
    classify_regime,
    inequality_bound,
    lambda_thresholds,
    uniqueness_certificate,
)
from .calculus import (
    DirichletFunction,
    VertexFunction,
    green_pairing,
    integrate,
    norm,
    norm_and_parts,
    p_gradient,
    p_laplacian,
    signed_power,
)
from .energy import (
    EnergyBreakdown,
    energy,
    energy_value,
    gradient_residual,
    residual_original,
)
from .graphs import Graph, GraphSummary, build_graph, graph_summary, validate_graph
from .model import (
    ArctanPower,
    CustomNonlinearity,
    ExponentField,
    GrowthEnvelope,
    InstanceConstants,
    Nonlinearity,
    Potential,
    PowerPlus,
    ProblemSpec,
    check_envelope,
    eval_f,
    instance_constants,
    primitive_F,
)
from .problem_io import (
    ProblemDocument,
    fixture_path,
    load_problem,
    parse_problem,
    spec_to_document,
)
from .solver import (
    CriticalPoint,
    PositivityReport,
    SolveReport,
    SolverOptions,
    descend_all,
    mountain_pass,
    solve,
    spike_point,
    verify_positive,
)

__all__ = [name for name in dir() if not name.startswith("_")]
