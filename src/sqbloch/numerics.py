"""Self-contained numerical kernel of ``polariton``, ``estimation`` and ``acceptance``.

Dense complex matrices are plain ``numpy.ndarray`` in row-major order.  The
entry points are

* :func:`eigh` -- Hermitian eigendecomposition (LAPACK through numpy) with a
  deterministic ordering and phase gauge,
* :func:`integrate_ode` -- embedded Dormand-Prince 5(4) with PI step control
  and dense output; the real coefficient sums of a complex state run on its
  float view, and real-state arithmetic is unchanged by that,
* :func:`fit_least_squares_stack` -- damped Gauss-Newton (Levenberg-Marquardt
  style damping schedule) on a Jacobian that the caller supplies in closed
  form, run as one loop over a ``(B, n)`` stack of independent fits: each row
  keeps its own damping, cost, iteration count and stopping rules.  A row's
  error (reported, not raised) is set where it fails; a row that stops
  leaves its state at its index, and its result is built after the loop.
  :func:`fit_least_squares` is its one-row call for a single fit.

All routines are pure functions of their inputs; reruns on one numpy/BLAS
build are byte-identical.  Time is measured in microseconds and rates in
inverse microseconds throughout the package; nothing in this module depends
on that convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateFitError, NonFiniteDerivativeError, StiffnessError

__all__ = [
    "EigenDecomposition",
    "FitResult",
    "OdeSolution",
    "eigh",
    "fit_least_squares",
    "fit_least_squares_stack",
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
    # keyed on each vector's largest component, nonzero in a unit column.
    lead = np.argmax(np.abs(vectors), axis=0)
    cluster_tol = max(1e-9 * max(np.abs(eigenvalues).max(), 1.0), 1e-300)
    cluster = np.cumsum(np.diff(eigenvalues, prepend=eigenvalues[0]) > cluster_tol)
    order = np.lexsort((lead, cluster))  # stable: ties keep LAPACK's order
    vectors[:] = vectors[:, order]  # in place, so the memory layout stays
    eigenvalues, lead = eigenvalues[order], lead[order]
    z = vectors[lead, np.arange(n)]
    # np.hypot rounds |z| as the scalar abs(z) does; the array np.abs can
    # differ in the last bit, which would change the eigenvectors' bytes.
    vectors *= np.conj(z) / np.hypot(z.real, z.imag)

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
    """RMS of ``|err / (tol + tol max(|y0|, |y1|))|``; scales ``err`` in place.
    numpy divides complex by real as ``err * (1 / scale)`` (Smith's rule), so
    the cheaper product rounds exactly as the quotient does."""
    scale = np.maximum(abs_y0, abs_y1)
    scale *= tol
    scale += tol
    if np.iscomplexobj(err):
        np.divide(1.0, scale, out=scale)
        err *= scale
    else:
        err /= scale
    q = np.abs(err)
    q *= q
    return float(np.sqrt(np.add.reduce(q) / q.size))


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
    states are both supported, each solved in at least double precision
    (float64 or complex128, whatever the dtype of ``y0``).  The stage, error
    and interpolant sums of a complex state run on the float view of its stage
    stack (the coefficients are real); a real state is its own view, so its
    arithmetic is unchanged.

    A non-finite ``y0`` or a ``tol`` that is not positive raises
    ``ValueError`` before ``f`` is called; a non-finite ``f(t0, y0)`` raises
    :class:`NonFiniteDerivativeError` at once, and so does a step size that
    underflows rejecting a NaN error estimate, naming the last accepted t.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a non-degenerate forward interval")
    y = np.atleast_1d(np.asarray(y0))
    y = y.astype(np.result_type(y, float), copy=False)
    if not np.isfinite(y).all():
        raise ValueError("y0 holds a non-finite value")

    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size and (t_eval.min() < t0 - 1e-12 or t_eval.max() > t1 + 1e-12):
        raise ValueError("t_eval must lie within t_span")
    if np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be nondecreasing")

    k = np.empty((7, y.size), dtype=y.dtype)
    k[0] = f(t0, y)
    if not np.isfinite(k[0]).all():  # its step size would be NaN, never below hmin
        raise NonFiniteDerivativeError(f"f(t0, y0) is not finite at t0 = {t0:.6g}")
    kr = k.view(k.real.dtype)

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
    out_y = np.empty((t_eval.size, y.size), dtype=y.dtype)
    while eval_idx < t_eval.size and t_eval[eval_idx] <= t0 + 1e-15:
        out_y[eval_idx] = y
        eval_idx += 1

    err_norm = err_prev = 1e-4
    hmin = 1e4 * np.finfo(float).eps * max(abs(t0), abs(t1))
    steps = accepted = 0
    while t < t1:
        if steps >= _MAX_STEPS:
            raise ConvergenceError(f"ODE step budget {_MAX_STEPS} exhausted")
        steps += 1
        h = min(h, t1 - t)
        if h < hmin:
            if math.isnan(err_norm):  # the last step was rejected on a NaN error
                raise NonFiniteDerivativeError(
                    f"f is not finite past t={t:.6g}: step size underflow (h={h:.3e})"
                )
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={h:.3e})")

        # yi = y + h * (_DP_A[i] @ k[:i]), scaled and added in place in the
        # fresh product array; stage 1 is a scalar times k[0].
        for i in range(1, 7):
            yi = _DP_A[1][0] * k[0] if i == 1 else (_DP_A[i] @ kr[:i]).view(y.dtype)
            yi *= h
            yi += y
            k[i] = f(t + _DP_C[i] * h, yi)
        y_new = yi  # the stage-6 input is the 5th-order solution (FSAL row)
        abs_y_new = np.abs(y_new)
        err = (_DP_E @ kr).view(y.dtype)
        err *= h
        err_norm = _error_norm(err, abs_y, abs_y_new, tol)

        if err_norm <= 1.0:
            t_new = t + h
            if eval_idx < t_eval.size and t_eval[eval_idx] <= t_new + 1e-15:
                # The step's interpolant coefficients, shared by its samples.
                dy = y_new - y
                r3 = h * k[0] - dy
                r4 = dy - h * k[6] - r3
                r5 = h * (_DP_D @ kr).view(y.dtype)
                while eval_idx < t_eval.size and t_eval[eval_idx] <= t_new + 1e-15:
                    theta = (t_eval[eval_idx] - t) / h
                    out_y[eval_idx] = y + theta * (
                        dy + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5))
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


# Stopping rules of the least-squares loop (see FitResult.converged), and its
# damping schedule: start, floor, and the ceiling at which a row stops with no
# descent.
_GTOL = 1e-8
_XTOL = 1e-12
_MAX_ITER = 200
_LAM_START, _LAM_MIN, _LAM_MAX = 1e-3, 1e-14, 1e15


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
    scaled normal equations.  Deterministic given identical inputs.  This is
    the one-row call of :func:`fit_least_squares_stack`, which runs the loop.

    ``jac(t, p)`` is the derivative of ``model`` with respect to ``p``: a
    C-contiguous float array of shape ``(t.size, p.size)`` whose column ``i``
    is ``d model(t, p) / d p[i]`` (another memory layout takes another BLAS
    path through ``j.T @ j`` and rounds differently).  It is evaluated once
    at the start and once after each accepted step; ``model`` once per trial
    step.  A fit gives the same bytes here as in any stack of
    :func:`fit_least_squares_stack` whose model and Jacobian compute its row
    as ``model`` and ``jac`` do.

    Raises
    ------
    ValueError
        If ``jac`` returns an array of the wrong shape.
    DegenerateFitError
        If the residuals, or their sum of squares, are non-finite at the
        initial guess (the message names an overflow), or the Jacobian is
        rank deficient beyond what damping can recover (no descent direction
        found while the gradient is still large).
    """
    (res,) = fit_least_squares_stack(
        lambda tt, ps: np.asarray(model(tt, ps[0]), dtype=float)[None],
        t,
        np.asarray(y, dtype=float)[None],
        np.asarray(initial_guess, dtype=float)[None],
        jac=lambda tt, ps: jac(tt, ps[0])[None],
    )
    if isinstance(res, DegenerateFitError):
        raise res
    return res


def fit_least_squares_stack(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t: Sequence[float] | np.ndarray,
    y: np.ndarray,
    initial_guess: np.ndarray,
    *,
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[FitResult | DegenerateFitError]:
    """Fit each row of a ``(B, n)`` stack ``y`` by one damped Gauss-Newton loop.

    Row ``b`` minimizes ``sum((model(t, p)[b] - y[b])**2)`` from
    ``initial_guess[b]``, a ``(B, k)`` array.  ``model(t, p)`` takes a
    ``(rows, k)`` stack of parameter vectors and returns the ``(rows, n)``
    model values; ``jac(t, p)`` returns their derivatives as a C-contiguous
    ``(rows, n, k)`` float array, so that each ``[b]`` slice is the
    C-contiguous ``(n, k)`` layout :func:`fit_least_squares` asks of a single
    Jacobian (a stack in another layout, such as a transposed view, takes
    another BLAS path and rounds differently).  Both are called on the rows
    still iterating, in stack order, and row ``b`` of the output may depend on
    row ``b`` of ``p`` only.

    Each row keeps its own damping, cost and iteration count, stops by the
    rules of :class:`FitResult` and leaves the loop when it stops.  Every
    per-row product and solve is a stacked ``matmul`` or LAPACK call, which
    runs the same kernel on each slice, so a row's result is byte-identical
    whether it is fitted alone or inside any stack.

    Returns one entry per row, each set once: the :class:`DegenerateFitError`
    (returned, not raised) of a row whose residuals, or their sum of squares,
    are non-finite at its initial guess, or that found no descent direction
    while its gradient was still large, set where it fails; or else its
    :class:`FitResult`, built after the loop from the row's state as it left.
    The other rows are unaffected.

    Raises
    ------
    ValueError
        If the shapes disagree, a row has fewer samples than parameters, the
        initial guess is not finite, or ``jac`` returns an array of the wrong
        shape.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(initial_guess, dtype=float)
    if p.ndim != 2 or y.shape != (len(p), t.size):
        raise ValueError(
            f"expected a (B, {t.size}) stack and a (B, k) guess, got {y.shape} and {p.shape}"
        )
    n_rows, k = p.shape
    n = t.size
    if n < k:
        raise ValueError("need at least as many samples as parameters")
    if not np.isfinite(p).all():
        raise ValueError("initial guess must be finite")
    if not n_rows:
        return []

    def normal_equations(params, r):
        # Gradient, its infinity norm and J^T J, per row.
        j = jac(t, params)
        if j.shape != (len(params), n, k):
            raise ValueError(f"jac returned shape {j.shape}, expected {(len(params), n, k)}")
        jt = j.transpose(0, 2, 1)
        grad = 2.0 * (jt @ r[:, :, None])
        return grad, _amax(np.abs(grad), axis=(1, 2)), jt @ j

    eye = np.eye(k)
    out: list = [None] * n_rows  # each row's outcome, set once
    # A row whose residuals or cost overflow fails here, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(model(t, p), dtype=float) - y
        cost = np.vecdot(r, r)  # per row, the BLAS dot of a 1-D ``r @ r``
    live = np.arange(n_rows)
    finite = np.isfinite(cost)
    if np.count_nonzero(finite) < n_rows:
        for row in np.flatnonzero(~finite):
            big = _amax(np.abs(r[row]))  # NaN if a residual is
            out[row] = DegenerateFitError(
                f"squared residuals overflow at the initial guess (largest |residual| {big:.3e})"
                if math.isfinite(big) else "model returned non-finite residuals")
        live, p, r, y, cost = live[finite], p[finite], r[finite], y[finite], cost[finite]
        if not len(live):
            return out

    # Per live row: its index in the stack, parameters, residuals, data,
    # cost, damping, iteration number, and the gradient and J^T J at the
    # parameters.
    lam = np.full(len(live), _LAM_START)
    iterations = np.ones(len(live), dtype=int)
    grad, gnorm, jtj = normal_equations(p, r)
    converged = stop = gnorm <= _GTOL * np.maximum(1.0, cost)
    # Each row's state as it leaves the loop, at its index in the stack.
    state = (p, cost, jtj, iterations, converged)
    ends = [np.empty((n_rows, *v.shape[1:]), v.dtype) for v in state]

    # A row's iteration number grows by at most one per round.
    for rounds in itertools.count(1):
        n_stop = np.count_nonzero(stop)
        if n_stop:
            rows = live[stop]
            for end, v in zip(ends, (p, cost, jtj, iterations, converged)):
                end[rows] = v[stop]
            if n_stop == len(live):
                break
            keep = ~stop
            live, p, r, y, cost, lam, iterations, grad, gnorm, jtj = (
                v[keep] for v in (live, p, r, y, cost, lam, iterations, grad, gnorm, jtj)
            )

        # One trial step per row: solve (J^T J + lam D) delta = -grad / 2,
        # D the diagonal of J^T J with a floor relative to its largest entry.
        diag = jtj.diagonal(axis1=1, axis2=2)
        diag = np.maximum(diag, 1e-12 * _amax(diag, axis=1, keepdims=True, initial=1e-300))
        delta = _solve_rows(jtj + (lam[:, None] * diag)[:, :, None] * eye, -0.5 * grad)
        p_try = p + delta
        r_try = np.asarray(model(t, p_try), dtype=float) - y
        with np.errstate(over="ignore", invalid="ignore"):
            cost_try = np.vecdot(r_try, r_try)
            step = cost_try < cost  # False for a non-finite residual
        stuck = None
        n_step = np.count_nonzero(step)
        # The all-step branch and the no-step ``continue`` are measured fast
        # paths: without them the bytes were the same, but a 14-row stack
        # fitted 11-20% slower, a one-row sinusoid 20-40% and a one-row
        # exponential 15%.
        if n_step == len(step):
            p, r, cost = p_try, r_try, cost_try
            lam = np.maximum(lam / 3.0, _LAM_MIN)
        else:
            lam = np.where(step, np.maximum(lam / 3.0, _LAM_MIN), lam * 10.0)
            # No descent at any damping: a (numerical) optimum, or a
            # genuinely degenerate Jacobian.
            stuck = ~step & (lam >= _LAM_MAX)
            optimum = stuck & (gnorm <= 1e-6 * np.maximum(1.0, cost))
            failed = stuck & ~optimum
            for row, g in zip(live[failed], gnorm[failed]):
                out[row] = DegenerateFitError(f"no descent direction found (gradient norm {g:.3e})")
            if not n_step:
                stop, converged = stuck, optimum
                continue
            p = np.where(step[:, None], p_try, p)
            r = np.where(step[:, None], r_try, r)
            cost = np.where(step, cost_try, cost)
            delta[~step] = np.inf  # only a step taken can be small
        # A row that did not step re-derives the same normal equations, and
        # fails both tests below as it did before.
        grad, gnorm, jtj = normal_equations(p, r)
        small = _amax(np.abs(delta), axis=1) <= _XTOL * (_XTOL + _amax(np.abs(p), axis=1))
        iterations += step > small
        stop = converged = small | (gnorm <= _GTOL * np.maximum(1.0, cost))
        if stuck is not None:
            stop, converged = stop | stuck, converged | optimum
        if rounds >= _MAX_ITER:
            spent = iterations > _MAX_ITER
            iterations[spent] = _MAX_ITER
            stop, converged = stop | spent, converged & ~spent

    # The rows that did not fail, with their covariances from one call.
    p, cost, jtj, iterations, converged = ends
    fitted = [row for row, res in enumerate(out) if res is None]
    covs = _covariances(jtj[fitted], cost[fitted] / (n - k)) if n > k else [None] * len(fitted)
    for row, cov in zip(fitted, covs):
        out[row] = FitResult(
            params=p[row],
            residual_norm=math.sqrt(cost[row]),
            converged=bool(converged[row]),
            iterations=int(iterations[row]),
            covariance=cov,
        )
    return out


_amax = np.maximum.reduce  # ndarray.max without its Python-level wrapper


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each ``a[i] x = b[i]`` (``b`` is ``(rows, k, 1)``); a singular
    row gets NaN, which no trial step accepts."""
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(a.shape[:2], np.nan)
        return np.concatenate([_solve_rows(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


def _covariances(jtj: np.ndarray, scale: np.ndarray) -> list[np.ndarray | None]:
    """``pinv(jtj[i]) * scale[i]`` per row; None for a row whose SVD fails."""
    try:
        return list(np.linalg.pinv(jtj) * scale[:, None, None])
    except np.linalg.LinAlgError:
        if len(jtj) == 1:
            return [None]
        return [c for i in range(len(jtj)) for c in _covariances(jtj[i : i + 1], scale[i : i + 1])]
