"""Lieb-Robinson correlation functions for the 1-D transverse-field Ising chain.

C_k(t) = || [Z_k, Z_1(t)] || measures how fast quantum influence spreads from
the first qubit down the chain.  The dense route evolves operators in the
full 2^N space, which the grid budget admits to 12 qubits; the operator
Pauli-walk route reduces the same quantity to the first row of the
exponential of a 2N x 2N skew-symmetric matrix and reaches hundreds of
qubits.  A Bessel-function closed form covers the semi-infinite chain at the
critical coupling, and leading-edge expressions cover the far front, where
the correlation is too small for any floating-point representation.
"""

from .params import (
    ChainParams,
    DimensionGuardError,
    GuardError,
    HorizonError,
    Method,
    ThresholdNotReachedError,
    ValidationError,
    validate_params,
)
from .oracle import (
    PauliString,
    build_hamiltonian,
    commutator_isotropy_check,
    frobenius_norm,
    heisenberg_evolve,
    lr_direct,
    lr_direct_grid,
    operator_norm,
    pauli_string_matrix,
)
from .walk import (
    build_adjacency,
    exp_first_row,
    exp_first_row_highprec,
    lr_walk,
    lr_walk_grid,
    lr_walk_grid_highprec,
    lr_walk_highprec,
    relevant_strings,
    walk_coefficients,
)
from .critical import (
    ballot_count,
    bessel_j,
    bessel_jn_array,
    bessel_sum_check,
    lr_critical,
    lr_critical_grid,
    signed_walk_sum,
)
from .asymptotics import (
    LogValue,
    dispersion,
    lr_leading_exact,
    lr_leading_exponential,
    lr_leading_grid,
    lr_leading_largek,
    saturation_value,
    v_group,
    v_group_max,
    v_group_max_numeric,
    v_lieb_robinson,
)
from .analysis import (
    FrontEstimate,
    RouteGrid,
    crossing_time,
    front_velocity,
    lightcone,
    measure_saturation,
    reflection_safe_horizon,
    saturation_window,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
