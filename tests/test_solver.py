"""Interior-point solver for smooth convex programs."""
import tracemalloc

import numpy as np
import pytest

from conftest import stage_programs
from numerics import (as_dense, bound_rows, record_points, scalar_ineq,
                      spot_check_convexity, verify_derivatives)
from secrelay import benchmark_scenario, solver, trajectory_scp
from secrelay.model import (PowerAllocation, equal_power_allocation,
                            restore_feasibility)
from secrelay.solver import (STALL_TOL_FACTOR, ConstraintBlock,
                             SmoothConvexProgram, SolverOptions, _Blocks,
                             kkt_residual, solve, start_margin)

LN2 = float(np.log(2.0))


def _quadratic_with_floor(scale=1.0):
    """min scale * x^2  s.t.  x >= 1  (optimum x=1, dual 2 * scale).

    Its KKT residual cannot get below a few ulps of 2 * scale."""
    return SmoothConvexProgram(
        dim=1,
        objective=lambda x: float(scale * x[0] ** 2),
        gradient=lambda x: np.array([2.0 * scale * x[0]]),
        hessian=lambda x: np.array([2.0 * scale]),
        hess_idx=([0], [0]),
        lb=np.array([1.0]),
        strictly_feasible_start=np.array([3.0]),
    )


class TestAnalytic:
    def test_quadratic_with_floor(self):
        res = solve(_quadratic_with_floor())
        assert res.status == "optimal"
        assert res.x_opt[0] == pytest.approx(1.0, abs=1e-6)
        assert res.bound_duals[0] == pytest.approx(2.0, abs=1e-4)
        assert res.kkt_residual <= 1e-6

    def test_kkt_residual_at_analytic_point(self):
        prog = _quadratic_with_floor()
        assert kkt_residual(prog, np.array([1.0]), np.array([2.0])) <= 1e-10

    def test_kkt_residual_detects_perturbation(self):
        prog = _quadratic_with_floor()
        r = kkt_residual(prog, np.array([1.0 + 1e-3]), np.array([2.0]))
        assert r > 1e-5

    def test_zero_duals_interior_minimum(self):
        prog = SmoothConvexProgram(
            dim=2,
            objective=lambda x: float((x[0] - 1) ** 2 + 2 * (x[1] + 3) ** 2),
            gradient=lambda x: np.array([2 * (x[0] - 1), 4 * (x[1] + 3)]),
            hessian=lambda x: np.array([2.0, 4.0]),
            hess_idx=([0, 1], [0, 1]),
            strictly_feasible_start=np.zeros(2),
        )
        x = np.array([0.5, 0.0])
        grad = prog.gradient(x)
        assert kkt_residual(prog, x, np.zeros(0)) == pytest.approx(
            float(np.max(np.abs(grad))))
        # And the unconstrained path finds the interior minimum.
        res = solve(prog)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x_opt, [1.0, -3.0], atol=1e-6)

    @pytest.mark.parametrize("with_hessian", [True, False])
    def test_unconstrained_non_quadratic(self, with_hessian):
        """min sum(exp(x)) - b.x, optimum log b, on the interior-point
        loop with no rows and no bounds; without a Hessian the Newton
        matrix is the regularization alone."""
        b = np.array([0.5, 2.0, 7.0])
        prog = SmoothConvexProgram(
            dim=3,
            objective=lambda x: float(np.sum(np.exp(x)) - b @ x),
            gradient=lambda x: np.exp(x) - b,
            hessian=np.exp if with_hessian else None,
            hess_idx=(np.arange(3), np.arange(3)),
            strictly_feasible_start=np.zeros(3))
        res = solve(prog)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x_opt, np.log(b), rtol=0, atol=1e-5)


class TestStallStatus:
    def test_stall_beyond_factor_not_optimal(self):
        # Tolerances near and far below the double-precision floor of the
        # residual.
        for scale in (1.0, 1e3, 1e6):
            for tol in (1e-14, 1e-16, 1e-20):
                res = solve(_quadratic_with_floor(scale),
                            SolverOptions(tol=tol))
                if res.status == "optimal":
                    assert res.kkt_residual <= STALL_TOL_FACTOR * tol
        res = solve(_quadratic_with_floor(1e6), SolverOptions(tol=1e-14))
        assert res.kkt_residual > STALL_TOL_FACTOR * 1e-14
        assert res.status in ("numerical_failure", "max_iter")

    def test_stall_within_factor_is_optimal(self):
        # The residual stalls at a few ulps, just above tol = 1e-16.
        res = solve(_quadratic_with_floor(), SolverOptions(tol=1e-16))
        assert res.kkt_residual <= STALL_TOL_FACTOR * 1e-16
        assert res.status == "optimal"
        assert res.x_opt[0] == pytest.approx(1.0, abs=1e-12)


def _boxed_program(explicit_bounds=False):
    """min |x - c|^2 + 0.5 x0 x1  s.t.  |x|^2 <= 4 and a box.

    The box is [-1, 0.6] x [-inf, 0.5] x [-0.2, inf].  Its upper sides
    are one-entry rows; its lower sides are bounds or, with
    ``explicit_bounds``, one-entry rows too."""
    c = np.array([2.0, 1.0, -1.0])
    lb = np.array([-1.0, -np.inf, -0.2])
    ub = np.array([0.6, 0.5, np.inf])
    ball = ConstraintBlock(
        cols=np.arange(3)[None, :], value=lambda x: np.array([x @ x - 4.0]),
        jacobian=lambda x: 2.0 * x[None, :],
        hess_weighted=lambda x, w: np.full(3, 2.0 * w[0]),
        hess_idx=(np.arange(3), np.arange(3)), name="ball")
    ineqs = [ball, bound_rows(ub)]
    if explicit_bounds:
        ineqs.append(bound_rows(lb, -1.0))
    # Lower triangle of [[2, 0.5, 0], [0.5, 2, 0], [0, 0, 2]].
    hess = np.array([2.0, 0.5, 2.0, 2.0])
    return SmoothConvexProgram(
        dim=3,
        objective=lambda x: float((x - c) @ (x - c) + 0.5 * x[0] * x[1]),
        gradient=lambda x: 2.0 * (x - c) + 0.5 * np.array([x[1], x[0], 0.0]),
        hessian=lambda x: hess,
        hess_idx=(np.array([0, 1, 1, 2]), np.array([0, 0, 1, 2])),
        ineqs=ineqs,
        lb=None if explicit_bounds else lb,
        strictly_feasible_start=np.array([0.1, 0.0, 0.3]),
    )


class TestImplicitBounds:
    def test_bounds_match_explicit_rows(self):
        res = solve(_boxed_program())
        ref = solve(_boxed_program(explicit_bounds=True))
        assert res.status == ref.status == "optimal"
        np.testing.assert_allclose(res.x_opt, ref.x_opt, rtol=0, atol=1e-7)
        # Active: x0 <= 0.6, x1 <= 0.5, x2 >= -0.2.
        np.testing.assert_allclose(res.x_opt, [0.6, 0.5, -0.2], atol=1e-5)

    def test_kkt_residual_matches_dense_reference(self):
        prog = _boxed_program()
        res = solve(prog)
        x = res.x_opt
        lam = np.concatenate([res.duals, res.bound_duals])
        # Dense stack: program rows, then -e_i for finite lb.
        lbi = np.flatnonzero(np.isfinite(prog.lb))
        J = np.vstack([as_dense(b.cols, b.jacobian(x), 3)
                       for b in prog.ineqs]
                      + [-np.eye(3)[lbi]])
        g = np.concatenate([b.value(x) for b in prog.ineqs]
                           + [prog.lb[lbi] - x[lbi]])
        for duals in (lam, lam * 1.01 + 1e-3, -lam):
            ref = max(float(np.max(np.abs(prog.gradient(x) + J.T @ duals))),
                      float(np.max(np.maximum(g, 0.0))),
                      float(np.max(np.abs(duals * g))),
                      float(np.max(np.maximum(-duals, 0.0))))
            assert kkt_residual(prog, x, duals) == pytest.approx(
                ref, rel=0, abs=1e-12)


class TestEvaluationCount:
    def test_each_point_evaluated_once(self):
        """Every callback (objective, gradient, Hessian, and each block's
        value, Jacobian and weighted Hessian) sees a point once."""
        prog, seen = record_points(
            _random_two_var_family(np.random.default_rng(3))[0])
        res = solve(prog)
        assert res.status == "optimal" and res.iterations > 0
        for name, points in seen.items():
            assert points, name
            assert len(set(points)) == len(points), name

    def test_each_residual_computed_once(self, monkeypatch):
        """J^T w is taken at most once per start (its dual residual), once
        per Newton step (the right-hand side) and once per strictly
        feasible line-search trial (its dual residual, which the next
        step and the optimality checks reuse).  A start and each such
        trial take one Jacobian, and each step one factorization."""
        calls = {"jt": 0, "jacobian": 0, "factor": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(_Blocks, "jt", counting("jt", _Blocks.jt))
        monkeypatch.setattr(_Blocks, "jacobian",
                            counting("jacobian", _Blocks.jacobian))
        monkeypatch.setattr(solver, "_factor_solve",
                            counting("factor", solver._factor_solve))
        programs = {"two-var": _random_two_var_family(
            np.random.default_rng(3))[0], **stage_programs(50)}
        for name, prog in programs.items():
            for k in calls:
                calls[k] = 0
            res = solve(prog)
            assert res.status == "optimal" and res.iterations > 0, name
            assert calls["factor"] >= res.iterations, name
            assert calls["jt"] <= calls["jacobian"] + calls["factor"], name


class TestSlackLogTerm:
    def test_grid_oracle_pushes_slack_to_cap(self):
        # min log2(1 + g/(h2+t)) over t in [0, c]: decreasing in t, so the
        # optimum saturates the cap. The 1e5-point grid oracle is the
        # authority; the solver must agree.
        g, h2, c = 5e4, 1e4, 3e4

        def f(t):
            return np.log2(1.0 + g / (h2 + t))

        grid = np.linspace(0.0, c, 100001)
        t_oracle = grid[np.argmin(f(grid))]
        assert t_oracle == pytest.approx(c)

        s = 1e4  # variable scaling, as used by the subproblems
        prog = SmoothConvexProgram(
            dim=1,
            objective=lambda z: float(f(z[0] * s)),
            gradient=lambda z: np.array(
                [-g * s / (LN2 * (h2 + z[0] * s) * (h2 + z[0] * s + g))]),
            hessian=lambda z: np.array(
                [g * s * s * (2 * (h2 + z[0] * s) + g)
                 / (LN2 * ((h2 + z[0] * s) * (h2 + z[0] * s + g)) ** 2)]),
            hess_idx=([0], [0]),
            ineqs=[bound_rows(np.array([c / s]))],
            lb=np.array([0.0]),
            strictly_feasible_start=np.array([0.5 * c / s]),
        )
        assert verify_derivatives(prog, np.array([0.4])) < 1e-6
        res = solve(prog)
        assert res.status == "optimal"
        # Position agrees to solver tolerance in scaled units (1e-6 * s).
        assert res.x_opt[0] * s == pytest.approx(t_oracle, abs=1e-4 * s)
        assert res.objective_value == pytest.approx(f(t_oracle), abs=1e-6)

    def test_constant_objective_trajectory_step(self):
        # Silent relay: the N=2 displacement subproblem has a constant
        # objective; any feasible point is optimal with tiny residual.
        from secrelay.trajectory_scp import build_subproblem, make_iterate
        from conftest import small_scenario
        from secrelay.model import Trajectory
        scn = small_scenario(n_slots=2, start_xy=[0.0, 0.0],
                             end_xy=[60.0, 0.0])
        traj = Trajectory([[20.0, 0.0], [40.0, 0.0]])
        pw = PowerAllocation(p_s=[0.01, 0.0], p_r=[0.0, 0.0])
        prog = build_subproblem(scn, pw, make_iterate(scn, traj, pw))
        res = solve(prog)
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(0.0, abs=1e-9)
        assert res.kkt_residual <= 1e-6


class TestStart:
    """``solve`` runs from the program's start and refuses one that is
    missing or not strictly feasible, naming the worst row."""

    def test_missing_start_raises(self):
        prog = _quadratic_with_floor()
        prog.strictly_feasible_start = None
        with pytest.raises(ValueError, match="no strictly_feasible_start"):
            solve(prog)

    @pytest.mark.parametrize("start, message", [
        ([1.0, 7.0], "row 1 of block 'ub' is 2.000e+00"),
        ([0.5, 1.0], "the lower bound of x[0] is 1.500e+00"),
        ([np.nan, 1.0], "row 0 of block 'ub' is nan")],
        ids=["row", "bound", "nan"])
    def test_empty_interior_raises(self, start, message):
        """x0 >= 2 and x0 <= 0.75: no start is strictly feasible."""
        prog = SmoothConvexProgram(
            dim=2,
            objective=lambda x: float(x[0]),
            gradient=lambda x: np.array([1.0, 0.0]),
            ineqs=[bound_rows(np.array([0.75, 5.0]))],
            lb=np.array([2.0, 0.0]),
            strictly_feasible_start=np.array(start),
        )
        assert not start_margin(prog) > 0.0
        with pytest.raises(ValueError) as err:
            solve(prog)
        assert str(err.value) == (
            "the start is not strictly feasible: " + message)


class TestIndefiniteHessian:
    """A nonconvex program runs the same loop; its indefinite Newton
    matrix gets the shifted, capped steps of ``_factor_solve`` and every
    step is judged by the barrier function.  The solve ends ``optimal``
    at a point that ``kkt_residual`` certifies, or ends
    ``numerical_failure``: never ``optimal`` at a point that is not a KKT
    point."""

    TOL = 1e-8
    # (seed, scale) of an instance that must fail: scaled by 1e10, its
    # KKT residual cannot fall below about 3e-6 in double precision, far
    # above STALL_TOL_FACTOR * TOL, so the solve stalls.
    ROUNDING_FLOOR = (2, 1e10)

    @staticmethod
    def _program(seed: int, dim: int = 4, scale: float = 1.0):
        """min x'Qx / 2 + c'x over the box [-1, 1]^dim, with Q random,
        symmetric and indefinite, from a random start inside the box;
        Q and c are multiplied by ``scale``."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        q = 0.5 * (a + a.T) * scale
        c = rng.normal(size=dim) * scale
        rows, cols = np.tril_indices(dim)
        prog = SmoothConvexProgram(
            dim=dim, objective=lambda x: float(0.5 * x @ q @ x + c @ x),
            gradient=lambda x: q @ x + c, hessian=lambda x: q[rows, cols],
            hess_idx=(rows, cols), ineqs=[bound_rows(np.ones(dim))],
            lb=-np.ones(dim),
            strictly_feasible_start=rng.uniform(-0.5, 0.5, dim))
        return prog, np.linalg.eigvalsh(q)

    def test_optimal_only_at_kkt_points(self):
        failed_factors = []
        statuses = {}
        for seed, scale in [(seed, 1.0) for seed in range(12)] + [
                (8, 1e7), (9, 1e7), self.ROUNDING_FLOOR]:
            prog, eig = self._program(seed, scale=scale)
            assert eig[0] < 0.0 < eig[-1]
            res = solve(prog, SolverOptions(tol=self.TOL))
            statuses[seed, scale] = res.status
            failed_factors.append(res.failed_factorizations)
            duals = np.concatenate([res.duals, res.bound_duals])
            residual = kkt_residual(prog, res.x_opt, duals)
            if res.status == "optimal":
                assert residual <= STALL_TOL_FACTOR * self.TOL, seed
                assert np.all(np.abs(res.x_opt) <= 1.0), seed
            else:
                assert res.status == "numerical_failure", seed
                assert residual > STALL_TOL_FACTOR * self.TOL, seed
        # Every instance of the family reaches a KKT point, the one past
        # its rounding floor fails, and the shift search ran.
        assert statuses.pop(self.ROUNDING_FLOOR) == "numerical_failure"
        assert set(statuses.values()) == {"optimal"}
        assert sum(failed_factors)


class TestShiftSearch:
    """``_factor_solve`` on random indefinite banded matrices, against a
    dense reference of the shift ladder."""

    @staticmethod
    def _ladder_shift(ab, k):
        scale = max(1.0, abs(float(np.sum(ab[0]))) / ab.shape[1])
        return 0.0 if k == 0 else solver.SHIFT_FIRST * scale * 2.0 ** (k - 1)

    def test_carried_rung_lands_on_lowest_and_step_capped(self):
        rng = np.random.default_rng(21)
        dim, height = 40, 4
        shifted = 0
        for _ in range(12):
            ab = rng.normal(size=(height, dim))
            A = _band_to_dense(ab)
            assert np.linalg.eigvalsh(A)[0] < 0.0
            rhs = rng.normal(scale=100.0, size=dim)
            # The lowest rung on which the dense matrix is positive
            # definite, climbing from 0.
            low = next(k for k in range(solver.LADDER) if np.linalg.eigvalsh(
                A + self._ladder_shift(ab, k) * np.eye(dim))[0] > 0.0)
            # The reference step: two rungs up until within the cap.
            k = low
            while True:
                ref = np.linalg.solve(
                    A + self._ladder_shift(ab, k) * np.eye(dim), rhs)
                if k == 0 or np.max(np.abs(ref)) <= solver.STEP_CAP:
                    break
                k += 2
            shifted += k > low
            for start in {0, max(low - 3, 0), max(low - 1, 0), low, low + 1,
                          low + 9}:
                rung = solver._Rung()
                rung.k = start
                dx = solver._factor_solve(ab, rhs, rung)
                assert rung.k == low, start
                np.testing.assert_allclose(dx, ref, rtol=1e-8, atol=0)
                assert np.max(np.abs(dx)) <= solver.STEP_CAP
        # The cap raised the shift on some of the matrices.
        assert shifted


def _random_two_var_family(rng):
    """Subproblem-shaped 2-variable instance: quadratic displacement cost
    plus the convex Eve-slack log term, with an affine coupling
    t <= e0 + f*d, box on d and t >= 0."""
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(-2.0, 2.0)
    g = rng.uniform(0.5, 20.0)
    h2 = 1.0
    e0 = rng.uniform(0.5, 4.0)
    f = rng.uniform(-1.0, 1.0)
    lo, hi = -1.0, 1.0

    def obj_grid(d, t):
        return a * d * d + b * d + np.log2(1.0 + g / (h2 + t))

    prog = SmoothConvexProgram(
        dim=2,
        objective=lambda x: float(obj_grid(x[0], x[1])),
        gradient=lambda x: np.array([
            2 * a * x[0] + b,
            -g / (LN2 * (h2 + x[1]) * (h2 + x[1] + g))]),
        hessian=lambda x: np.array([
            2 * a, g * (2 * (h2 + x[1]) + g)
            / (LN2 * ((h2 + x[1]) * (h2 + x[1] + g)) ** 2)]),
        hess_idx=([0, 1], [0, 1]),
        ineqs=[scalar_ineq(lambda x: x[1] - (e0 + f * x[0]),
                           lambda x: np.array([-f, 1.0]), 2),
               bound_rows(np.array([hi, np.inf]))],
        lb=np.array([lo, 0.0]),
        strictly_feasible_start=np.array([0.0, min(0.5, 0.5 * e0)]),
    )
    return prog, obj_grid, (lo, hi), e0, f


def _grid_oracle(obj_grid, lo, hi, e0, f, n=400, passes=3):
    """Brute-force minimum on an n x n grid, refined around the best cell."""
    lo_v = np.array([lo, 0.0])
    hi_v = np.array([hi, e0 + abs(f)])
    best = np.inf
    for _ in range(passes):
        xs = np.linspace(lo_v[0], hi_v[0], n)
        ts = np.linspace(lo_v[1], hi_v[1], n)
        D, T = np.meshgrid(xs, ts, indexing="ij")
        vals = np.where((T <= e0 + f * D + 1e-12) & (T >= 0.0),
                        obj_grid(D, T), np.inf)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[idx]))
        center = np.array([D[idx], T[idx]])
        width = (hi_v - lo_v) / n * 4.0
        lo_v = np.clip(center - width, [lo, 0.0], None)
        hi_v = np.minimum(center + width, [hi, e0 + abs(f)])
    return best


class TestAgainstGridOracle:
    def test_two_var_instances(self, rng):
        for _ in range(8):
            prog, obj_grid, (lo, hi), e0, f = _random_two_var_family(rng)
            assert spot_check_convexity(
                prog, [np.array([x, t]) for x in (-0.5, 0.0, 0.5)
                       for t in (0.1, 1.0, 3.0)])
            res = solve(prog)
            assert res.status == "optimal"
            best = _grid_oracle(obj_grid, lo, hi, e0, f)
            assert abs(res.objective_value - best) <= 1e-3


class TestDeterminismAndMonotonicity:
    def test_bitwise_determinism(self):
        prog1, *_ = _random_two_var_family(np.random.default_rng(5))
        prog2, *_ = _random_two_var_family(np.random.default_rng(5))
        r1 = solve(prog1)
        r2 = solve(prog2)
        assert r1.iterations == r2.iterations
        assert r1.x_opt.tobytes() == r2.x_opt.tobytes()
        assert r1.objective_value == r2.objective_value

    def test_thread_count_independent_at_n_2000(self):
        """At N = 2000 the stage programs' sums over all variables or rows
        pass 10,000 entries, beyond which a threaded OpenBLAS would split
        a dot product between its threads.  The power and trajectory
        solves give the same bits of ``x_opt``, ``duals`` and
        ``bound_duals`` at 1 and at 2 OpenBLAS threads."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import secrelay
        src = str(Path(secrelay.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)
        code = """if True:
            import hashlib
            from conftest import stage_programs
            from secrelay.solver import solve
            progs = stage_programs(2000)
            for name in ("power", "trajectory"):
                res = solve(progs[name])
                digest = hashlib.sha256()
                for a in (res.x_opt, res.duals, res.bound_duals):
                    digest.update(a.tobytes())
                print(name, res.status, res.iterations, digest.hexdigest())
        """
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ,
                   "PYTHONPATH": os.pathsep.join([src, tests]),
                   "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", code], cwd=src,
                                 capture_output=True, text=True, check=True,
                                 env=env)
            outs.append(out.stdout.split())
        assert outs[0][1] == outs[0][5] == "optimal"
        assert outs[0] == outs[1]

    def test_barrier_path_monotone(self, rng):
        for _ in range(6):
            prog, *_ = _random_two_var_family(rng)
            res = solve(prog)
            hist = np.array(res.objective_history)
            scale = max(1.0, float(np.max(np.abs(hist))))
            assert np.all(np.diff(hist) <= 1e-9 * scale)

    def test_derivative_checks_random_points(self, rng):
        prog, *_ = _random_two_var_family(rng)
        for _ in range(20):
            x = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.05, 2.0)])
            assert verify_derivatives(prog, x) < 1e-5


def _band_to_dense(ab):
    """Symmetric dense matrix from LAPACK lower banded storage."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for o in range(ab.shape[0]):
        A[np.arange(o, n), np.arange(n - o)] = ab[o, :n - o]
    return A + np.tril(A, -1).T


def _count_plans(monkeypatch):
    """Record the program of every Newton-matrix plan built."""
    built = []

    class Counting(solver._Plan):
        def __init__(self, blocks):
            built.append(blocks.prog)
            super().__init__(blocks)

    monkeypatch.setattr(solver, "_Plan", Counting)
    return built


def _random_pattern(rng, m, dim, k, width):
    """Columns and values of rows of k entries within a window of
    ``width`` columns; columns may repeat within a row."""
    lo = rng.integers(0, dim - width + 1, m)
    return (lo[:, None] + rng.integers(0, width, (m, k)),
            rng.normal(size=(m, k)))


def _random_hessian(rng, dim, width, n):
    """Lower-triangle positions and values of n entries within ``width``
    of the diagonal."""
    rows = rng.integers(0, dim, n)
    return ((rows, np.maximum(rows - rng.integers(0, width, n), 0)),
            rng.normal(size=n))


def _dense_stack(blocks, J, n):
    """The full stack's dense Jacobian from the program-row values J."""
    out = np.zeros((blocks.n_ineq, n))
    np.add.at(out, (blocks.rows, blocks.cols), J)
    return np.vstack([out, -np.eye(n)[blocks.lb_idx]])


class TestBandedNewton:
    """The banded Newton matrix against dense references."""

    def test_band_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        dim, width = 30, 5
        blocks_J = [_random_pattern(rng, m, dim, k, width)
                    for m, k in ((25, 3), (10, 5), (4, 1))]
        lb = np.where(rng.uniform(size=dim) < 0.5, 0.0, -np.inf)
        ub = np.where(rng.uniform(size=dim) < 0.3, 1.0, np.inf)
        upper = bound_rows(ub)
        H_idx, H = _random_hessian(rng, dim, width, 40)
        prog = SmoothConvexProgram(
            dim=dim, objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(dim),
            hessian=lambda x: H, hess_idx=H_idx,
            ineqs=[ConstraintBlock(cols=c, value=None,
                                   jacobian=lambda x, v=v: v)
                   for c, v in blocks_J] + [upper],
            lb=lb)
        blocks = _Blocks(prog)
        s = rng.uniform(0.1, 10.0, blocks.m)
        x = np.zeros(dim)
        ab = blocks.newton_band(blocks.jacobian(x), s, blocks.hessians(x, s))
        assert ab.shape[0] <= width
        # Dense reference: program rows (upper bounds last), then -e_i for
        # lb.
        Jd = np.vstack([as_dense(c, v, dim) for c, v in blocks_J]
                       + [as_dense(upper.cols, upper.jacobian(None), dim),
                          -np.eye(dim)[blocks.lb_idx]])
        ref = (Jd.T * s) @ Jd + as_dense(H_idx, H, dim)
        np.testing.assert_allclose(_band_to_dense(ab), ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))

    def test_pattern_copied_once(self, monkeypatch):
        """A block whose ``jacobian`` callback overwrites the block's
        ``cols`` and ``hess_idx`` arrays on every call still gets the band
        of the pattern declared when the solve started, at every Newton
        point, from one plan."""
        built = _count_plans(monkeypatch)
        rng = np.random.default_rng(14)
        dim, width, m = 30, 5, 20
        cols0, _ = _random_pattern(rng, m, dim, 3, width)
        (rows0, hcols0), _ = _random_hessian(rng, dim, width, 15)
        cols, hess_idx = cols0.copy(), (rows0.copy(), hcols0.copy())
        J_at = [rng.normal(size=(m, 3)) for _ in range(3)]
        H_at = [rng.normal(size=15) for _ in range(3)]

        def jacobian(x):
            cols[:] = _random_pattern(rng, m, dim, 3, width)[0]
            for a in hess_idx:
                a[:] = rng.integers(0, dim, a.size)
            return J_at[int(x[0])]

        prog = SmoothConvexProgram(
            dim=dim, objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(dim),
            ineqs=[ConstraintBlock(
                cols=cols, value=None, jacobian=jacobian,
                hess_weighted=lambda x, w: H_at[int(x[0])],
                hess_idx=hess_idx)],
            lb=np.zeros(dim))
        blocks = _Blocks(prog)
        s = rng.uniform(0.1, 10.0, blocks.m)
        eye = np.eye(dim)
        for point in (0, 1, 1, 2, 0):
            x = np.full(dim, float(point))
            ab = blocks.newton_band(blocks.jacobian(x), s,
                                    blocks.hessians(x, s))
            assert not np.array_equal(cols, cols0)
            Jd = np.vstack([as_dense(cols0, J_at[point], dim), -eye])
            ref = ((Jd.T * s) @ Jd
                   + as_dense((rows0, hcols0), H_at[point], dim))
            np.testing.assert_allclose(_band_to_dense(ab), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))
        assert built == [prog]


class TestCallbackTypes:
    """Callbacks return value arrays of the declared shape; anything
    else is refused, naming the callback, its block and the shape."""

    @pytest.mark.parametrize("block, callback, returns, message", [
        pytest.param(
            0, "jacobian", lambda x: 2.0 * x,
            "jacobian of block 'ball' returned ndarray of shape (3,), "
            "expected an array of shape (1, 3)", id="jacobian-wrong-shape"),
        pytest.param(
            1, "jacobian", lambda x: np.eye(3)[:2],
            "jacobian of block 'ub' returned ndarray of shape (2, 3), "
            "expected an array of shape (2, 1)", id="jacobian-dense"),
        pytest.param(
            0, "jacobian",
            lambda x: (np.arange(3)[None, :], 2.0 * x[None, :]),
            "jacobian of block 'ball' returned tuple, "
            "expected an array of shape (1, 3)", id="jacobian-cols-vals"),
        pytest.param(
            0, "hess_weighted",
            lambda x, w: 2.0 * w[0] * np.eye(3),
            "hess_weighted of block 'ball' returned ndarray of shape "
            "(3, 3), expected an array of shape (3,)",
            id="hess_weighted-dense"),
        pytest.param(
            None, "hessian", lambda x: 2.0 * np.eye(3),
            "hessian returned ndarray of shape (3, 3), "
            "expected an array of shape (4,)", id="hessian-dense")])
    def test_wrong_output_raises_type_error(self, block, callback, returns,
                                            message):
        prog = _boxed_program()
        setattr(prog if block is None else prog.ineqs[block], callback,
                returns)
        with pytest.raises(TypeError) as err:
            solve(prog)
        assert str(err.value) == message


class TestAssemblyPlan:
    """One Newton-matrix plan per solve of the stage programs."""

    def test_one_plan_per_solve(self, monkeypatch):
        """The stage programs keep their pattern through a solve: one plan
        per solve."""
        built = _count_plans(monkeypatch)
        for name, prog in stage_programs(50).items():
            built.clear()
            res = solve(prog)
            assert res.status == "optimal" and res.iterations > 0, name
            assert built == [prog], name

    def test_stage_band_matches_dense_solve(self, monkeypatch):
        """A stage program's band, assembled through its plan, against the
        dense Newton matrix of the same Jacobian, multipliers and
        Hessians, and its banded solve against that matrix.  The matrices
        are ill-conditioned near the boundary, so the solve is judged by
        its backward error; the first step's, with multipliers clipped at
        1e8 on rows 1e-10 from their bound, is not numerically positive
        definite and is regularized, so only the later solves are
        exact."""
        seen = []
        real = _Blocks.newton_band

        def recording(blocks, J, s, hess):
            out = real(blocks, J, s, hess)
            seen.append((blocks, J, s.copy(), hess, out))
            return out

        monkeypatch.setattr(_Blocks, "newton_band", recording)
        prog = stage_programs(50)["trajectory causality edge"]
        solve(prog, SolverOptions(max_iter=3))
        assert len(seen) == 3
        rng = np.random.default_rng(15)
        for step, (blocks, J, s, hess, ab) in enumerate(seen):
            n = blocks.prog.dim
            Jd = _dense_stack(blocks, J, n)
            ref = (Jd.T * s) @ Jd + sum(as_dense(idx, h, n) for idx, h
                                        in zip(blocks.hess_idx, hess))
            np.testing.assert_allclose(_band_to_dense(ab), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))
            if step == 0:
                continue
            rhs = rng.normal(size=n)
            dx = solver._factor_solve(ab, rhs)
            scale = np.max(np.abs(ref)) * np.max(np.abs(dx)) + 1.0
            assert np.max(np.abs(ref @ dx - rhs)) <= 1e-12 * scale

    def test_repeat_solve_bit_identical(self):
        """A plan lives in one solve: solving a program again gives the
        same bits."""
        for name, prog in stage_programs(50).items():
            first, second = solve(prog), solve(prog)
            assert first.x_opt.tobytes() == second.x_opt.tobytes(), name


class TestCentredStart:
    """The start multipliers, ``MU_START`` over each slack capped at
    ``LAM_START_MAX``, keep the first Newton matrix positive definite."""

    @pytest.mark.parametrize("name", ["trajectory",
                                      "trajectory causality edge"])
    def test_first_newton_matrix_factors(self, name, monkeypatch):
        """The N = 50 trajectory steps have rows within 1e-10 of their
        bound at the start; uncapped multipliers (1 / slack) made their
        first Newton matrix fail LAPACK ``dpbtrf`` and take
        regularization."""
        real = solver.dpbtrf
        factored = []

        def recording(ab, *args, **kwargs):
            out = real(ab, *args, **kwargs)
            factored.append(out[1] == 0)
            return out

        prog = stage_programs(50)[name]
        monkeypatch.setattr(solver, "dpbtrf", recording)
        res = solve(prog)
        assert res.status == "optimal"
        assert factored[0]


class TestFactorizationCounts:
    """``SolverResult`` counts the banded factorizations of a solve by
    LAPACK's info code."""

    def test_one_per_newton_step_on_convex_stage_programs(self):
        """The convex stage programs (the power program and both
        trajectory steps) factor each Newton matrix once, unshifted."""
        for name, prog in stage_programs(50).items():
            res = solve(prog)
            assert res.status == "optimal" and res.iterations > 0, name
            assert res.factorizations == res.iterations, name
            assert res.failed_factorizations == 0, name

    def test_finish_counts_its_shift_search(self, monkeypatch):
        """The true trajectory problem is nonconvex: its finish solve from
        the fixed-endpoint straight line searches the shift ladder, so it
        factors more often than it steps, and some factorizations fail;
        the counts are those of the calls to ``dpbtrf``."""
        real, infos = solver.dpbtrf, []

        def recording(ab, *args, **kwargs):
            out = real(ab, *args, **kwargs)
            infos.append(out[1])
            return out

        monkeypatch.setattr(solver, "dpbtrf", recording)
        scn = benchmark_scenario(50.0, 1.0, fixed_endpoints=True)
        traj = trajectory_scp.initial_trajectory(scn)
        pw = restore_feasibility(scn, traj, equal_power_allocation(scn))
        it = trajectory_scp.make_iterate(scn, traj, pw)
        res = solve(trajectory_scp._true_program(
            scn, pw, it, trajectory_scp._Layout(scn, it, slacks=False)),
            trajectory_scp.FINISH)
        assert res.status == "optimal" and res.iterations > 0
        assert res.factorizations > res.iterations
        assert 0 < res.failed_factorizations < res.factorizations
        assert res.factorizations == len(infos)
        assert res.failed_factorizations == sum(i != 0 for i in infos)


class TestLinearScaling:
    """Newton steps of the stage programs cost O(N): constant band
    height, and memory far below one dense matrix."""

    def test_band_height_independent_of_n(self, monkeypatch):
        real = solver.dpbtrf
        heights = []

        def recording(ab, *args, **kwargs):
            heights[-1].add(ab.shape[0])
            return real(ab, *args, **kwargs)

        monkeypatch.setattr(solver, "dpbtrf", recording)
        seen = {}
        for n in (50, 400):
            for name, prog in stage_programs(n).items():
                heights.append(set())
                solve(prog, SolverOptions(max_iter=3))
                seen[name, n] = heights[-1]
        for name in ("power", "trajectory", "trajectory causality edge"):
            assert seen[name, 50], name
            assert seen[name, 50] == seen[name, 400], name
            assert max(seen[name, 50]) <= 16, name

    def test_causality_edge_program_starts_inside(self):
        """The trajectory step at the restored powers, whose base point is
        causal only to within the restoring tolerance, still starts
        strictly inside: its buffers take in the base point's excess."""
        for n in (50, 400, 2000):
            prog = stage_programs(n)["trajectory causality edge"]
            assert start_margin(prog) > 0.0, n

    def test_memory_at_n_2000(self):
        for prog in stage_programs(2000).values():
            assert prog.dim > 10000
            tracemalloc.start()
            try:
                solve(prog, SolverOptions(max_iter=3))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # One dense 2000 x 2000 float64 matrix is 32 MB.
            assert peak < 16e6
