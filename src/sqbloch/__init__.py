"""Radiative decay of a two-level atom in broadband squeezed vacuum.

Simulation of the phase-sensitive Bloch dynamics, its parent transmon-cavity
polariton master equation, the pulse-sequence protocols that measure the
decay timescales, and the inverse pipeline that reconstructs the reservoir
moments and Wigner distribution from those timescales.
"""

from . import blochdyn, estimation, numerics, polariton, protocols, reservoir

__version__ = "0.1.0"
