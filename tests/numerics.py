"""Test-only numerics for solver programs: dense forms of sparse
callback outputs, scalar constraint blocks, finite-difference derivative
checks and a sampled convexity check."""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from secrelay.solver import (ConstraintBlock, RowSparse, SmoothConvexProgram,
                             SymSparse)

Array = np.ndarray


def as_dense(a, n: int) -> Array:
    """A callback's Jacobian (m, n) or Hessian (n, n) as a dense array.

    Repeated entries of a ``RowSparse`` or ``SymSparse`` add up; an
    off-diagonal ``SymSparse`` entry also sits at its mirror position.
    """
    if isinstance(a, RowSparse):
        out = np.zeros((a.cols.shape[0], n))
        np.add.at(out, (np.arange(a.cols.shape[0])[:, None], a.cols),
                  a.vals)
        return out
    if isinstance(a, SymSparse):
        out = np.zeros((n, n))
        np.add.at(out, (a.rows, a.cols), a.vals)
        off = a.rows != a.cols
        np.add.at(out, (a.cols[off], a.rows[off]), a.vals[off])
        return out
    return np.asarray(a, dtype=float)


def scalar_ineq(value: Callable[[Array], float],
                grad: Callable[[Array], Array],
                hess: Optional[Callable[[Array], Array]] = None,
                name: str = "") -> ConstraintBlock:
    """Wrap a single scalar constraint g(x) <= 0 as a block."""
    hw = None
    if hess is not None:
        hw = lambda x, w: w[0] * hess(x)
    return ConstraintBlock(
        m=1,
        value=lambda x: np.atleast_1d(np.asarray(value(x), dtype=float)),
        jacobian=lambda x: np.asarray(grad(x), dtype=float).reshape(1, -1),
        hess_weighted=hw,
        name=name,
    )


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
        H = as_dense(prog.hessian(x), dim)
        fd_H = np.zeros((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_H[:, i] = (prog.gradient(x + e) - prog.gradient(x - e)) / (2 * h)
        fd_H = 0.5 * (fd_H + fd_H.T)
        worst = max(worst, rel(float(np.max(np.abs(H - fd_H))),
                               float(np.max(np.abs(H), initial=0.0))))

    for b in prog.ineqs:
        J = as_dense(b.jacobian(x), dim)
        fd_J = np.zeros_like(J)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_J[:, i] = (b.value(x + e) - b.value(x - e)) / (2 * h)
        worst = max(worst, rel(float(np.max(np.abs(J - fd_J))),
                               float(np.max(np.abs(J), initial=0.0))))
        if b.hess_weighted is not None:
            w = np.ones(b.m)
            Hw = as_dense(b.hess_weighted(x, w), dim)
            fd_Hw = np.zeros((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd_Hw[:, i] = (as_dense(b.jacobian(x + e), dim).T @ w
                               - as_dense(b.jacobian(x - e), dim).T @ w
                               ) / (2 * h)
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
            mats.append(as_dense(prog.hessian(x), prog.dim))
        for b in prog.ineqs:
            if b.hess_weighted is not None:
                for k in range(b.m):
                    w = np.zeros(b.m)
                    w[k] = 1.0
                    mats.append(as_dense(b.hess_weighted(x, w), prog.dim))
        for H in mats:
            scale = max(1.0, float(np.max(np.abs(H))))
            ev = np.linalg.eigvalsh(0.5 * (H + H.T))
            if ev.min() < -tol_scale * scale:
                return False
    return True
