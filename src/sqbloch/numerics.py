"""Self-contained numerical kernel used by every other module.

Dense complex matrices are plain ``numpy.ndarray`` in row-major order.  The
three entry points are

* :func:`eigh` -- Hermitian eigendecomposition (LAPACK through numpy) with a
  deterministic ordering and phase gauge,
* :func:`integrate_ode` -- embedded Dormand-Prince 5(4) with PI step control
  and dense output,
* :func:`fit_least_squares` -- damped Gauss-Newton (Levenberg-Marquardt style
  damping schedule) on a Jacobian that the caller supplies in closed form.

All routines are pure functions of their inputs; reruns on one numpy/BLAS
build are byte-identical.  Time is measured in microseconds and rates in
inverse microseconds throughout the package; nothing in this module depends
on that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateFitError, StiffnessError

__all__ = [
    "EigenDecomposition",
    "FitResult",
    "OdeSolution",
    "eigh",
    "fit_least_squares",
    "hermitian_defect",
    "integrate_ode",
]


def hermitian_defect(m: np.ndarray) -> float:
    """Largest |m[i,j] - conj(m[j,i])| relative to the largest |entry|."""
    m = np.asarray(m)
    diff = np.conjugate(m.T, order="C")
    np.subtract(m, diff, out=diff)
    if not diff.any():  # exactly Hermitian: skip both |.| passes
        return 0.0
    return float(np.abs(diff).max() / np.abs(m).max())


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


_HERMITIAN_TOL = 1e-12  # relative to the largest entry


def eigh(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix (LAPACK via ``numpy.linalg.eigh``).

    Eigenvalues are returned ascending.  Within degenerate clusters, vectors
    are ordered by the row index of their largest-magnitude component (ties
    to the lower index), and each vector's phase is fixed so that component
    is real and positive.  The ordering and gauge make the output
    byte-identical across reruns on one numpy/BLAS build.

    Raises
    ------
    ValueError
        If ``h`` is not square, has a non-finite entry, or is not Hermitian
        to 1e-12 relative to its largest entry.
    numpy.linalg.LinAlgError
        If LAPACK fails to converge.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    defect = hermitian_defect(h)
    if defect > _HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: relative defect {defect:.3e}")

    n = h.shape[0]
    # Symmetrize away the sub-tolerance defect; LAPACK returns ascending order.
    eigenvalues, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))

    # Deterministic ordering inside degenerate clusters and phase gauge, both
    # keyed on each vector's largest-magnitude component.
    lead = np.argmax(np.abs(vectors), axis=0)
    cluster_tol = max(1e-9 * max(np.abs(eigenvalues).max(), 1.0), 1e-300)
    i = 0
    while i < n:
        j = i + 1
        while j < n and eigenvalues[j] - eigenvalues[j - 1] <= cluster_tol:
            j += 1
        if j - i > 1:
            sub = i + np.argsort(lead[i:j], kind="stable")
            vectors[:, i:j] = vectors[:, sub]
            eigenvalues[i:j] = eigenvalues[sub]
            lead[i:j] = lead[sub]
        i = j
    z = vectors[lead, np.arange(n)]
    nonzero = z != 0.0
    # np.hypot rounds |z| as the scalar abs(z) does; the array np.abs can
    # differ in the last bit, which would change the eigenvectors' bytes.
    z = z[nonzero]
    vectors[:, nonzero] *= np.conj(z) / np.hypot(z.real, z.imag)

    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


# --- Dormand-Prince 5(4) --------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Coefficients of the order-4 dense-output polynomial for this pair.
_DP_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)


@dataclass(frozen=True)
class OdeSolution:
    """Sampled trajectory: ``y[k]`` is the state at time ``t[k]``; ``n_rhs``
    counts right-hand-side evaluations and ``n_accepted``/``n_rejected`` the
    adaptive steps kept and retried."""

    t: np.ndarray
    y: np.ndarray
    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0


def _error_norm(err: np.ndarray, abs_y0: np.ndarray, abs_y1: np.ndarray, tol: float) -> float:
    scale = tol + tol * np.maximum(abs_y0, abs_y1)
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


_MAX_STEPS = 1_000_000  # adaptive steps, accepted and rejected, per solve


def integrate_ode(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[complex] | np.ndarray,
    t_span: tuple[float, float],
    tol: float = 1e-9,
    *,
    t_eval: Sequence[float] | np.ndarray,
) -> OdeSolution:
    """Integrate ``y' = f(t, y)`` with an adaptive Dormand-Prince 5(4) pair.

    Local error per step is kept at or below ``tol`` (used as both absolute
    and relative tolerance).  The requested sample times ``t_eval`` are
    filled by the pair's order-4 dense-output interpolant.  Real and complex
    states are both supported.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a non-degenerate forward interval")
    y = np.atleast_1d(np.asarray(y0))
    if not np.iscomplexobj(y):
        y = y.astype(float)

    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size and (t_eval.min() < t0 - 1e-12 or t_eval.max() > t1 + 1e-12):
        raise ValueError("t_eval must lie within t_span")
    if np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be nondecreasing")

    k = np.empty((7, y.size), dtype=y.dtype)
    k[0] = f(t0, y)

    # Starting step from the local derivative scale (Hairer's heuristic): a
    # state or derivative below the tolerance scale says nothing about the
    # step, so start small and let the controller grow it.
    abs_y = np.abs(y)
    sc = tol + tol * abs_y
    d0 = float(np.sqrt(np.mean(np.abs(y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k[0] / sc) ** 2)))
    if d0 < 1e-5 or d1 <= 1e-15:
        h = 1e-6 * (t1 - t0)
    else:
        h = min(0.01 * d0 / d1, t1 - t0)

    t = t0
    eval_idx = 0
    # The dense-output samples take the dtype of the interpolant.
    out_y = np.empty((t_eval.size, y.size), dtype=np.result_type(y, _DP_D))
    while eval_idx < t_eval.size and t_eval[eval_idx] <= t0 + 1e-15:
        out_y[eval_idx] = y
        eval_idx += 1

    err_prev = 1e-4
    hmin = 1e4 * np.finfo(float).eps * max(abs(t0), abs(t1))
    steps = accepted = 0
    while t < t1:
        if steps >= _MAX_STEPS:
            raise ConvergenceError(f"ODE step budget {_MAX_STEPS} exhausted")
        steps += 1
        h = min(h, t1 - t)
        if h < hmin:
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={h:.3e})")

        # yi = y + h * (_DP_A[i] @ k[:i]), scaled and added in place in the
        # fresh product array; stage 1 is a scalar times k[0].
        for i in range(1, 7):
            yi = _DP_A[1][0] * k[0] if i == 1 else _DP_A[i] @ k[:i]
            yi *= h
            yi += y
            k[i] = f(t + _DP_C[i] * h, yi)
        y_new = yi  # the stage-6 input is the 5th-order solution (FSAL row)
        abs_y_new = np.abs(y_new)
        err = _DP_E @ k
        err *= h
        err_norm = _error_norm(err, abs_y, abs_y_new, tol)

        if err_norm <= 1.0:
            t_new = t + h
            while eval_idx < t_eval.size and t_eval[eval_idx] <= t_new + 1e-15:
                theta = (t_eval[eval_idx] - t) / h
                dy = y_new - y
                r1 = y
                r2 = dy
                r3 = h * k[0] - dy
                r4 = dy - h * k[6] - r3
                r5 = h * (_DP_D @ k)
                out_y[eval_idx] = r1 + theta * (
                    r2 + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5))
                )
                eval_idx += 1
            t = t_new
            y, abs_y = y_new, abs_y_new
            k[0] = k[6]  # first-same-as-last
            accepted += 1
            err_norm = max(err_norm, 1e-10)
            fac = 0.9 * err_norm ** (-0.7 / 5) * err_prev ** (0.4 / 5)
            h *= min(5.0, max(0.2, fac))
            err_prev = err_norm
        else:
            h *= min(1.0, max(0.1, 0.9 * err_norm ** (-0.2)))

    return OdeSolution(
        t=t_eval[:eval_idx].copy(), y=out_y[:eval_idx], n_rhs=1 + 6 * steps,
        n_accepted=accepted, n_rejected=steps - accepted,
    )


# --- Damped Gauss-Newton least squares --------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Outcome of a nonlinear least-squares minimization.

    ``converged`` is True when the minimization stopped at a numerical
    optimum: the infinity norm of the gradient of the squared-residual
    objective fell to ``_GTOL * max(1, cost)``, a step fell below ``_XTOL``
    relative to the parameters, or no damping gave descent while that norm was
    at most ``1e-6 * max(1, cost)``.  It is False only when ``_MAX_ITER``
    iterations ran out.
    ``covariance`` is the linearized parameter covariance at the optimum
    (``None`` when it cannot be formed).
    """

    params: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    covariance: np.ndarray | None = None


# Stopping rules of fit_least_squares (see FitResult.converged).
_GTOL = 1e-8
_XTOL = 1e-12
_MAX_ITER = 200


def fit_least_squares(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    initial_guess: Sequence[float] | np.ndarray,
    *,
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> FitResult:
    """Minimize ``sum((model(t, p) - y)**2)`` over the parameter vector.

    Damped Gauss-Newton with a Levenberg-Marquardt damping schedule on the
    scaled normal equations.  Deterministic given identical inputs.

    ``jac(t, p)`` is the derivative of ``model`` with respect to ``p``: a
    C-contiguous float array of shape ``(t.size, p.size)`` whose column ``i``
    is ``d model(t, p) / d p[i]`` (another memory layout takes another BLAS
    path through ``j.T @ j`` and rounds differently).  It is evaluated once
    at the start and once after each accepted step; ``model`` once per trial
    step.

    Raises
    ------
    ValueError
        If ``jac`` returns an array of the wrong shape.
    DegenerateFitError
        If the Jacobian is rank deficient beyond what damping can recover
        (no descent direction found while the gradient is still large).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(initial_guess, dtype=float).copy()
    if t.size < p.size:
        raise ValueError("need at least as many samples as parameters")
    if not np.all(np.isfinite(p)):
        raise ValueError("initial guess must be finite")

    def residuals(params: np.ndarray) -> np.ndarray:
        r = np.asarray(model(t, params), dtype=float) - y
        if not np.all(np.isfinite(r)):
            raise DegenerateFitError("model returned non-finite residuals")
        return r

    def jacobian(params: np.ndarray) -> np.ndarray:
        j = jac(t, params)
        if j.shape != (t.size, p.size):
            raise ValueError(f"jac returned shape {j.shape}, expected {(t.size, p.size)}")
        return j

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    j = jacobian(p)

    for iterations in range(1, _MAX_ITER + 1):
        grad = 2.0 * (j.T @ r)
        gnorm = float(np.abs(grad).max())
        if gnorm <= _GTOL * max(1.0, cost):
            converged = True
            break

        jtj = j.T @ j
        diag = np.diag(jtj).copy()
        diag = np.maximum(diag, 1e-12 * max(diag.max(), 1e-300))
        stepped = False
        while lam < 1e15:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -0.5 * grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            try:
                r_try = residuals(p + delta)
            except DegenerateFitError:
                lam *= 10.0
                continue
            with np.errstate(over="ignore"):
                cost_try = float(r_try @ r_try)
            if not math.isfinite(cost_try):
                lam *= 10.0
                continue
            if cost_try < cost:
                p = p + delta
                r = r_try
                cost = cost_try
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            # No descent at any damping: either we are at a (numerical)
            # optimum, or the Jacobian is genuinely degenerate.
            if gnorm <= 1e-6 * max(1.0, cost):
                converged = True
                break
            raise DegenerateFitError(
                f"no descent direction found (gradient norm {gnorm:.3e})"
            )
        j = jacobian(p)
        if float(np.abs(delta).max()) <= _XTOL * (_XTOL + float(np.abs(p).max())):
            converged = True
            break

    covariance = None
    dof = t.size - p.size
    if dof > 0:
        try:
            jtj_inv = np.linalg.pinv(j.T @ j)
            covariance = jtj_inv * (cost / dof)
        except np.linalg.LinAlgError:
            covariance = None
    return FitResult(
        params=p,
        residual_norm=float(np.sqrt(cost)),
        converged=converged,
        iterations=iterations,
        covariance=covariance,
    )
