"""The benchmark's workloads: seeded instance generators, runs and checks.

Every workload is a list of instances solved one after another in one
process (a closed loop with one client).  An instance knows how to build its
``ProblemSpec`` (timed as set-up), how to solve it (timed as solve), and how
to check what came back against the benchmark's own reference copy of the
problem (``oracle.Problem``).
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import oracle
import plap
import plap.cli
import plap.problem_io
import plap.solver

# f(t) = t^1.5 + 1 against p = 3: the source grows slower than the operator,
# so every lambda is in the DirectAllLambda regime.
DIRECT = dict(p=3.0, phi=1.0, m=2.5, psi=1.0)
# f(t) = t^3 + 0.1 against p = 2 at lambda = lambda2 / 2: two solutions promised.
TWO_SOLUTION = dict(p=2.0, phi=1.0, m=4.0, psi=0.1)

FIXTURES = ("linear_path", "cubic_path", "triangle_pendant", "triangle_pendant_steep")
SWEEP_FIXTURE = "cubic_path"
SWEEP_RANGE = (0.05, 1.0)  # crosses lambda2 ~ 0.435 of cubic_path


def _positive_per_library(spec, values: dict) -> bool:
    u = plap.VertexFunction.from_dict(spec.graph, values, default=0.0)
    return plap.verify_positive(spec, u).passed


class Instance:
    """One problem solved once per sample.

    Instances of one ``group`` are draws of the same family (same size, other
    random weights); the group's time is the mean over its members.
    """

    name: str
    group: str
    problem: oracle.Problem
    promised: int = 0
    spec = None

    @property
    def n_edges(self) -> int:
        return len(self.problem.edges)

    def build(self):
        raise NotImplementedError

    def set_promise(self) -> None:
        """Solutions the regime promises: 2 for TwoSolutions or
        TwoSolutionsKKT, 1 for any other non-empty tag set, 0 for none."""
        regime = plap.classify_regime(plap.instance_constants(self.spec), self.spec.lam)
        names = set(regime.sorted_names())
        self.promised = 2 if names & {"TwoSolutions", "TwoSolutionsKKT"} else int(bool(names))

    def run(self):
        raise NotImplementedError

    def check(self, output) -> tuple[int, list[str]]:
        """(certified solutions, at most the promise; failure messages)."""
        raise NotImplementedError

    def _certify_all(self, solutions: list[dict]) -> tuple[int, list[str]]:
        certified, failures = 0, []
        for k, values in enumerate(solutions):
            bad = oracle.certify(self.problem, values)
            if not bad and not _positive_per_library(self.spec, values):
                bad = ["verify_positive(...).passed is false"]
            failures += [f"solution {k}: {msg}" for msg in bad]
            certified += not bad
        return min(certified, self.promised), failures


# -- generated grids ----------------------------------------------------------

def grid_problem(side: int, seed: int, member: int, shape: dict) -> oracle.Problem:
    """A side x side 4-neighbour grid; its outer ring (corners excluded) is the
    boundary.  Edge weights are drawn in [0.5, 1.5] and q in [0.5, 2] from a
    stream keyed by (seed, side, member); lambda is filled in when the spec is
    built.
    """
    rng = np.random.default_rng([seed, side, member])

    def lab(i, j):
        return f"g{i}_{j}"

    idx = range(1, side + 1)
    interior = [lab(i, j) for i in idx for j in idx]
    boundary = ([lab(0, j) for j in idx] + [lab(side + 1, j) for j in idx]
                + [lab(i, 0) for i in idx] + [lab(i, side + 1) for i in idx])
    pairs = []
    for i in idx:
        for j in idx:
            if i == 1:
                pairs.append((lab(0, j), lab(1, j)))
            if j == 1:
                pairs.append((lab(i, 0), lab(i, 1)))
            pairs.append((lab(i, j), lab(i + 1, j)))
            pairs.append((lab(i, j), lab(i, j + 1)))
    weights = rng.uniform(0.5, 1.5, len(pairs))
    qs = rng.uniform(0.5, 2.0, len(interior))
    return oracle.Problem(
        interior=interior,
        boundary=boundary,
        edges=[(a, b, float(w)) for (a, b), w in zip(pairs, weights)],
        p={v: shape["p"] for v in interior + boundary},
        q={v: float(x) for v, x in zip(interior, qs)},
        kind="power_plus",
        params={k: {v: shape[k] for v in interior} for k in ("phi", "m", "psi")},
        lam=1.0,
    )


class GridInstance(Instance):
    def __init__(self, side: int, seed: int, member: int, two_solution: bool):
        self.group = f"grid{side}x{side}"
        self.name = f"{self.group}#{member}"
        self.two_solution = two_solution
        self.shape = TWO_SOLUTION if two_solution else DIRECT
        self.problem = grid_problem(side, seed, member, self.shape)

    def build(self):
        prob, shape = self.problem, self.shape
        g = plap.build_graph(prob.interior, prob.boundary, prob.edges)
        ni = g.n_interior
        p = plap.ExponentField.constant(g, shape["p"])
        q = plap.Potential(g, [prob.q[v] for v in prob.interior])
        f = plap.PowerPlus(g, phi=np.full(ni, shape["phi"]), m=np.full(ni, shape["m"]),
                           psi=np.full(ni, shape["psi"]))
        lam = 1.0
        if self.two_solution:
            probe = plap.ProblemSpec(graph=g, p=p, q=q, f=f, lam=1.0)
            lam = 0.5 * plap.lambda_thresholds(plap.instance_constants(probe)).lambda2
        self.problem.lam = lam
        return plap.ProblemSpec(graph=g, p=p, q=q, f=f, lam=lam)

    def run(self):
        return plap.solver.solve(self.spec)

    def check(self, report):
        return self._certify_all([pt.u.as_dict() for pt in report.solutions])


# -- bundled fixtures through the command line --------------------------------

def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = plap.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class FixtureSolve(Instance):
    def __init__(self, fixture: str, seed: int):
        self.name = self.group = fixture
        self.path = str(plap.fixture_path(fixture + ".json"))
        self.seed = seed
        self.problem = oracle.problem_from_file(self.path)

    def build(self):
        return plap.problem_io.load_problem(self.path).spec

    def run(self):
        return _cli(["solve", self.path, "--seed", str(self.seed)])

    def check(self, output):
        rc, out, err = output
        if rc != 0:
            return 0, [f"plap solve exited {rc}: {err.strip()[:200]}"]
        try:
            doc = json.loads(out)
            solutions = [{k: float(v) for k, v in s["values"].items()}
                         for s in doc["solutions"]]
        except (ValueError, KeyError, TypeError) as exc:
            return 0, [f"unreadable solve report: {exc}"]
        return self._certify_all(solutions)


class FixtureSweep(FixtureSolve):
    def __init__(self, fixture: str, seed: int, steps: int):
        super().__init__(fixture, seed)
        self.name = self.group = f"sweep:{fixture}"
        self.steps = steps
        self.grid = [float(x) for x in np.linspace(*SWEEP_RANGE, steps)]

    def set_promise(self) -> None:
        self.promised = 0  # rows carry norms, not states; gated by check_sweep_csv

    def run(self):
        lo, hi = SWEEP_RANGE
        return _cli(["sweep", self.path, "--lambda-min", repr(lo), "--lambda-max", repr(hi),
                     "--steps", str(self.steps), "--seed", str(self.seed)])

    def check(self, output):
        rc, out, err = output
        if rc != 0:
            return 0, [f"plap sweep exited {rc}: {err.strip()[:200]}"]
        return 0, oracle.check_sweep_csv(self.problem, out, self.grid)


# -- the workloads --------------------------------------------------------------

def make(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    """The instances of one workload, generated from ``seed``.

    ``smoke`` shrinks every workload to instances that solve in well under a
    second, for checking that the harness and its output work.
    """
    # A direct-regime solve costs a chaotic function of its input: weights
    # perturbed by 1e-9 change a 32x32 solve from 1.2 s to 2.4 s.  A steady
    # figure needs many draws per size, which caps the size a run can afford.
    if workload == "grid_direct":
        plan = ((4, 2), (6, 2)) if smoke else ((8, 24), (16, 36))
        return _grids(plan, seed, two_solution=False)
    # Sphere sampling and mountain pass on small vectors.  The 12x12 grid is the
    # per-instance target; two draws of it, and several of the cheaper sizes,
    # average out seed-dependent work and mountain-pass outcomes.
    if workload == "grid_two_solution":
        plan = ((3, 2), (4, 1)) if smoke else ((3, 5), (5, 5), (8, 1), (12, 2))
        return _grids(plan, seed, two_solution=True)
    # arctan_power quadrature, and the only run of cli, problem_io, reporting.
    if workload == "fixtures_cli":
        fixtures = FIXTURES[:2] if smoke else FIXTURES
        return ([FixtureSolve(f, seed) for f in fixtures]
                + [FixtureSweep(SWEEP_FIXTURE, seed, 4 if smoke else 16)])
    raise KeyError(workload)


def _grids(plan, seed: int, two_solution: bool) -> list[Instance]:
    return [GridInstance(side, seed, member, two_solution)
            for side, count in plan for member in range(count)]
