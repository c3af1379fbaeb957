"""Test-only numerics for solver programs: dense forms of callback
values at their declared pattern, scalar constraint blocks and bound rows,
finite-difference derivative checks, a sampled convexity check, and the
bytes of every callback output and of every point the callbacks see."""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from secrelay.solver import ConstraintBlock, SmoothConvexProgram

Array = np.ndarray


def as_dense(pattern, vals: Array, n: int) -> Array:
    """Callback values at their pattern as a dense array: Jacobian values
    at the (m, k) columns ``pattern`` as an (m, n) array, or Hessian
    values at the positions ``pattern`` = (rows, cols) as an (n, n) one.

    Repeated entries add up; an off-diagonal Hessian entry also sits at
    its mirror position.
    """
    if not isinstance(pattern, tuple):
        cols = np.asarray(pattern)
        out = np.zeros((cols.shape[0], n))
        np.add.at(out, (np.arange(cols.shape[0])[:, None], cols), vals)
        return out
    rows, cols = (np.asarray(a) for a in pattern)
    out = np.zeros((n, n))
    np.add.at(out, (rows, cols), vals)
    off = rows != cols
    np.add.at(out, (cols[off], rows[off]), vals[off])
    return out


def scalar_ineq(value: Callable[[Array], float],
                grad: Callable[[Array], Array], dim: int,
                name: str = "") -> ConstraintBlock:
    """Wrap a single affine scalar constraint g(x) <= 0 over ``dim``
    variables as a block whose Jacobian is one row over every variable."""
    return ConstraintBlock(
        cols=np.arange(dim)[None, :],
        value=lambda x: np.atleast_1d(np.asarray(value(x), dtype=float)),
        jacobian=lambda x: np.asarray(grad(x), dtype=float).reshape(1, -1),
        name=name,
    )


def bound_rows(bound: Array, sign: float = 1.0) -> ConstraintBlock:
    """sign * (x_j - bound_j) <= 0 over the finite bound_j, one row each
    with one entry: upper bounds with sign 1, lower bounds with -1."""
    bound = np.asarray(bound, dtype=float)
    idx = np.flatnonzero(np.isfinite(bound))
    J = np.full((idx.size, 1), sign)
    return ConstraintBlock(cols=idx[:, None],
                           value=lambda x: sign * (x[idx] - bound[idx]),
                           jacobian=lambda x: J,
                           name="ub" if sign > 0 else "lb")


def verify_derivatives(prog: SmoothConvexProgram, x: Array,
                       h: Optional[float] = None) -> float:
    """Max relative error of all analytic derivatives vs central differences."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    dim = prog.dim
    worst = 0.0

    def rel(err, ref):
        return err / (1.0 + ref)

    # Objective gradient and Hessian.
    grad = np.asarray(prog.gradient(x), dtype=float)
    fd_grad = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fd_grad[i] = (prog.objective(x + e) - prog.objective(x - e)) / (2 * h)
    worst = max(worst, rel(float(np.max(np.abs(grad - fd_grad))),
                           float(np.max(np.abs(grad), initial=0.0))))
    if prog.hessian is not None:
        H = as_dense(prog.hess_idx, prog.hessian(x), dim)
        fd_H = np.zeros((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_H[:, i] = (prog.gradient(x + e) - prog.gradient(x - e)) / (2 * h)
        fd_H = 0.5 * (fd_H + fd_H.T)
        worst = max(worst, rel(float(np.max(np.abs(H - fd_H))),
                               float(np.max(np.abs(H), initial=0.0))))

    for b in prog.ineqs:
        def jac(y, b=b):
            return as_dense(b.cols, b.jacobian(y), dim)

        J = jac(x)
        fd_J = np.zeros_like(J)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_J[:, i] = (b.value(x + e) - b.value(x - e)) / (2 * h)
        worst = max(worst, rel(float(np.max(np.abs(J - fd_J))),
                               float(np.max(np.abs(J), initial=0.0))))
        if b.hess_weighted is not None:
            w = np.ones(b.m)
            Hw = as_dense(b.hess_idx, b.hess_weighted(x, w), dim)
            fd_Hw = np.zeros((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd_Hw[:, i] = (jac(x + e).T @ w - jac(x - e).T @ w) / (2 * h)
            fd_Hw = 0.5 * (fd_Hw + fd_Hw.T)
            worst = max(worst, rel(float(np.max(np.abs(Hw - fd_Hw))),
                                   float(np.max(np.abs(Hw), initial=0.0))))
    return worst


def spot_check_convexity(prog: SmoothConvexProgram, points: Sequence[Array],
                         tol_scale: float = 1e-8) -> bool:
    """Sampled-Hessian convexity check used by tests."""
    for x in points:
        mats = []
        if prog.hessian is not None:
            mats.append(as_dense(prog.hess_idx, prog.hessian(x), prog.dim))
        for b in prog.ineqs:
            if b.hess_weighted is not None:
                for k in range(b.m):
                    w = np.zeros(b.m)
                    w[k] = 1.0
                    mats.append(as_dense(b.hess_idx, b.hess_weighted(x, w),
                                         prog.dim))
        for H in mats:
            scale = max(1.0, float(np.max(np.abs(H))))
            ev = np.linalg.eigvalsh(0.5 * (H + H.T))
            if ev.min() < -tol_scale * scale:
                return False
    return True


def callback_outputs(prog: SmoothConvexProgram, z: Array,
                     reverse: bool = False) -> dict:
    """The bytes of every callback output of ``prog`` at z, by callback.

    The callbacks run in program order (objective, gradient, Hessian,
    then each block's value, Jacobian and weighted Hessian), or in the
    reverse order.  Each weighted Hessian takes the weights 1 .. 2.
    """
    calls = [("objective", prog.objective), ("gradient", prog.gradient)]
    if prog.hessian is not None:
        calls.append(("hessian", prog.hessian))
    for k, b in enumerate(prog.ineqs):
        calls += [(f"value{k}", b.value), (f"jacobian{k}", b.jacobian)]
        if b.hess_weighted is not None:
            w = np.linspace(1.0, 2.0, b.m)
            calls.append((f"hess_weighted{k}",
                          lambda x, b=b, w=w: b.hess_weighted(x, w)))
    if reverse:
        calls.reverse()
    return {name: np.asarray(fn(z), dtype=float).tobytes()
            for name, fn in calls}


def record_points(prog: SmoothConvexProgram
                  ) -> tuple[SmoothConvexProgram, dict]:
    """``prog`` with every callback wrapped to record the bytes of each
    point it is called at, and the lists they go to, by callback (named
    as in ``callback_outputs``)."""
    seen = {}

    def recording(name, fn):
        if fn is None:
            return None
        points = seen.setdefault(name, [])

        def wrapped(x, *args):
            points.append(np.asarray(x).tobytes())
            return fn(x, *args)
        return wrapped

    ineqs = [dataclasses.replace(
        b, value=recording(f"value{k}", b.value),
        jacobian=recording(f"jacobian{k}", b.jacobian),
        hess_weighted=recording(f"hess_weighted{k}", b.hess_weighted))
        for k, b in enumerate(prog.ineqs)]
    return dataclasses.replace(
        prog, objective=recording("objective", prog.objective),
        gradient=recording("gradient", prog.gradient),
        hessian=recording("hessian", prog.hessian), ineqs=ineqs), seen
