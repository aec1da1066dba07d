"""Filter banks, activations and the certificates read from them.

These are the operands of the forward map ``kernels.layer_stack_forward``,
which is called with ``filters_at(bank, t)`` and an activation's ``act_id``
and ``slope``.  A bank holds coefficients h[l, f, g, k] applying tap S^k
from input channel g to output channel f at layer l.  The time law is
either ``constant`` or ``fourier`` (a trigonometric polynomial in t over a
fixed horizon).  ``h_sup`` exposes both a grid estimate and a certified
upper bound of sup_{t, indices} |h|; every theoretical constant downstream
uses the certified value so the checked inequalities stay valid, and
``field_lipschitz`` turns it into the vector field's Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .catalog import locked_array
from .errors import InvalidParameterError

CONSTANT = "constant"
FOURIER = "fourier"

H_SUP_GRID = 10_000

_ACT_IDS = {
    "identity": kernels.ACT_IDENTITY,
    "relu": kernels.ACT_RELU,
    "leaky_relu": kernels.ACT_LEAKY_RELU,
    "tanh": kernels.ACT_TANH,
}


@dataclass(frozen=True)
class Activation:
    """Normalized-Lipschitz activation: |rho(x)-rho(y)| <= |x-y|, rho(0)=0."""

    kind: str = "tanh"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in _ACT_IDS:
            raise InvalidParameterError(
                f"unknown activation {self.kind!r}; choose from {sorted(_ACT_IDS)}"
            )
        if self.kind == "leaky_relu" and not (0.0 <= self.slope <= 1.0):
            raise InvalidParameterError("leaky_relu slope must be in [0, 1]")

    @property
    def act_id(self) -> int:
        return _ACT_IDS[self.kind]

    def apply(self, x):
        """rho(x) as a new array: ``kernels.activate``, the forward map's own rho."""
        return kernels.activate(np.array(x, dtype=np.float64), self.act_id, self.slope)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Immutable filter-coefficient bank; the coefficient shape sets the law.

    ``constant`` law: coeffs has shape (L, F, F, K) and is returned as-is
    at every t.  ``fourier`` law: coeffs has shape (L, F, F, K, 2M+1), M >= 1,
    holding (c0, a_1..a_M, b_1..b_M) per filter; evaluation at t in
    [0, horizon] is c0 + sum_m a_m cos(2 pi m t / T) + b_m sin(2 pi m t / T)
    with T = horizon.  ``time_law`` and ``modes`` (M, 0 for the constant
    law) are read-only properties of the shape.
    """

    coeffs: np.ndarray
    horizon: float = 1.0

    def __post_init__(self):
        arr = locked_array(self.coeffs)
        object.__setattr__(self, "coeffs", arr)
        if not np.isfinite(arr).all():
            raise InvalidParameterError("filter coefficients must be finite")
        if arr.ndim == 5:
            if arr.shape[4] < 3 or arr.shape[4] % 2 == 0:
                raise InvalidParameterError("fourier law needs a (L,F,F,K,2M+1) array, M >= 1")
            if not self.horizon > 0.0:
                raise InvalidParameterError("fourier law needs a positive horizon")
        elif arr.ndim != 4:
            raise InvalidParameterError("coefficients must be a (L,F,F,K) or (L,F,F,K,2M+1) array")
        if arr.shape[1] != arr.shape[2] or min(arr.shape[:4]) < 1:
            raise InvalidParameterError("coefficient array must be (L,F,F,K) shaped")

    @property
    def time_law(self) -> str:
        return FOURIER if self.coeffs.ndim == 5 else CONSTANT

    @property
    def modes(self) -> int:
        return (self.coeffs.shape[4] - 1) // 2 if self.coeffs.ndim == 5 else 0

    @property
    def L(self) -> int:
        return self.coeffs.shape[0]

    @property
    def F(self) -> int:
        return self.coeffs.shape[1]

    @property
    def K(self) -> int:
        return self.coeffs.shape[3]


def filters_at(bank: FilterBank, t: float) -> np.ndarray:
    """Coefficient array (L,F,F,K) at time t in [0, horizon]."""
    if bank.time_law == CONSTANT:
        return bank.coeffs
    tt = float(t)
    if not (0.0 <= tt <= bank.horizon):
        raise InvalidParameterError(
            f"time {tt!r} outside the bank horizon [0, {bank.horizon!r}]"
        )
    m = np.arange(1, bank.modes + 1, dtype=np.float64)
    ang = 2.0 * math.pi * m * (tt / bank.horizon)
    basis = np.concatenate(([1.0], np.cos(ang), np.sin(ang)))
    return np.tensordot(bank.coeffs, basis, axes=(4, 0))


def h_sup(bank: FilterBank) -> float:
    """Grid estimate of sup over time and indices of |h| (exact for constant law)."""
    if bank.time_law == CONSTANT:
        return float(np.max(np.abs(bank.coeffs)))
    ts = np.linspace(0.0, bank.horizon, H_SUP_GRID)
    return max(float(np.max(np.abs(filters_at(bank, t)))) for t in ts)


def h_sup_certified(bank: FilterBank) -> float:
    """Upper bound on h_sup valid for all t: |c0| + sum(|a_m| + |b_m|)."""
    if bank.time_law == CONSTANT:
        return float(np.max(np.abs(bank.coeffs)))
    return float(np.max(np.sum(np.abs(bank.coeffs), axis=4)))


def field_lipschitz(F: int, K: int, h_T: float, L: int) -> float:
    """(F K h_T)^L, the Lipschitz constant of the vector field on a shift of
    norm <= 1 when h_T bounds every filter tap, or inf where the power of a
    finite F K h_T overflows a float."""
    try:
        return (F * K * h_T) ** L
    except OverflowError:
        return math.inf


def random_filter_bank(
    L: int,
    F: int,
    K: int,
    rng,
    time_law: str = CONSTANT,
    modes: int = 0,
    horizon: float = 1.0,
) -> FilterBank:
    """Coefficients drawn uniformly from [-1, 1] (the replication preset):
    an (L, F, F, K) array for the constant law, (L, F, F, K, 2 modes + 1)
    for the fourier law."""
    if time_law not in (CONSTANT, FOURIER):
        raise InvalidParameterError(f"unknown time law {time_law!r}")
    size = (L, F, F, K) if time_law == CONSTANT else (L, F, F, K, 2 * modes + 1)
    return FilterBank(rng.uniform(-1.0, 1.0, size=size), horizon=horizon)
