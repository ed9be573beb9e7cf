"""Radiative decay of a two-level atom in broadband squeezed vacuum.

Simulation of the phase-sensitive Bloch dynamics, its parent transmon-cavity
polariton master equation, the pulse-sequence protocols that measure the
decay timescales, and the inverse pipeline that reconstructs the reservoir
moments and Wigner distribution from those timescales.
"""

from .blochdyn import (
    AxisTimescales,
    BlochState,
    DecayRates,
    axis_timescales,
    bloch_rhs,
    decay_eigenrates,
    polarization_propagator,
    steady_state,
)
from .estimation import (
    MomentEstimate,
    estimate_moments,
    fit_damped_sinusoid,
    fit_exp,
    infer_eta,
    moments_from_decays,
    reconstruct_wigner,
    subtract_dephasing,
)
from .numerics import EigenDecomposition, FitResult, eigh, fit_least_squares, integrate_ode
from .polariton import (
    PolaritonSystem,
    TransmonCavityParams,
    apply_master_equation,
    build_hamiltonian,
    diagonalize_polaritons,
    master_equation_rhs,
    two_level_reduction,
)
from .protocols import (
    BlochTrajectory,
    PulseSequence,
    RamseyTrace,
    apply_rotation,
    detuning_sweep,
    gain_sweep,
    ramsey,
    tomography_trajectory,
)
from .reservoir import (
    QuadratureVariances,
    SqueezedReservoir,
    WignerGrid,
    attenuate,
    eta_curve,
    ideal_M,
    thermal_from_population,
    variances,
    wigner,
)

__version__ = "0.1.0"
