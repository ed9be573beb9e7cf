"""Exception types shared across the package."""


class NumericalFailure(Exception):
    """Base of every error below: the CLI reports each with exit code 3."""


class ConvergenceError(RuntimeError, NumericalFailure):
    """An iterative routine exhausted its iteration budget."""


class StiffnessError(RuntimeError, NumericalFailure):
    """Adaptive ODE step size underflowed; the problem is too stiff for an
    explicit integrator."""


class NonFiniteDerivativeError(RuntimeError, NumericalFailure):
    """An ODE right-hand side is not finite at the initial state, or past the
    last accepted step, so no step can be taken."""


class DegenerateFitError(RuntimeError, NumericalFailure):
    """Least-squares Jacobian is rank deficient beyond what damping can
    recover."""


class UnphysicalRatesError(ValueError, NumericalFailure):
    """Decay-rate combination outside the physically allowed region."""


class MultiTransitionError(ValueError, NumericalFailure):
    """Squeezing bandwidth overlaps more than one dressed transition, so the
    two-level reduction is invalid."""


class NotSqueezedError(ValueError, NumericalFailure):
    """Moment pair has M <= N; the attenuation model cannot be inverted."""


class InconsistentInputsError(ValueError, NumericalFailure):
    """Measured timescales invert to a negative photon number."""
