"""Fock-space test oracle for the wire-mediated axial-state exchange.

Two harmonic modes (S = spectroscopy, L = logic) evolve under the resonant
beam-splitter Hamiltonian

    H/hbar = w_ex (aS^dag aL + aS aL^dag) + detuning * aS^dag aS,

the standard capacitive-limit reduction when |Im Z| >> Re Z and
w_ex << w_z, with each mode thermally damped in Lindblad form: collapse
operators sqrt(gamma_i (n_bar+1)) a_i and sqrt(gamma_i n_bar) a_i^dag, so
gamma_i is the energy decay rate Re Z / l_i and the bath occupation is the
axial n_bar. The rates are `protocol.ExchangeParams`.

The production path is the closed form `protocol.swap_probability`; no
command loads this module. It checks that closed form independently: a
fixed-step 4th-order Runge-Kutta scheme on the vectorized master equation,
whose generator `liouvillian` is a sparse (CSR) matrix, with
`scipy.sparse.linalg.expm_multiply` on the same matrix as an exact
cross-check path. States live on the joint Fock basis |n_S, n_L> with
per-mode truncation n_max; evolution raises TruncationError if the top
level accumulates more than TRUNCATION_LIMIT population.
"""

import math
from typing import Annotated, NamedTuple

import numpy as np

from .constants import NON_NEGATIVE, POSITIVE, Range, checked
from .protocol import ExchangeParams

__all__ = [
    "TruncationError",
    "ExchangeParams",
    "TwoModeState",
    "liouvillian",
    "evolve",
    "swap_fidelity",
]

# propagation step is 1/(RATE_FACTOR * fastest rate); 400 keeps the
# halve-the-step fidelity change near 1e-10 and state positivity within
# 1e-10 even for multi-quantum initial states
RATE_FACTOR = 400.0
TRUNCATION_LIMIT = 1e-3

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9


class TruncationError(RuntimeError):
    """Raised when population reaches the truncation boundary."""


@checked
class TwoModeState(NamedTuple):
    """Density matrix on the joint Fock basis, index = n_S*(n_max+1) + n_L."""

    n_max: Annotated[int, Range(2, math.inf, "must be at least 2")]
    rho: np.ndarray

    def _check(self) -> None:
        dim = (self.n_max + 1) ** 2
        if self.rho.shape != (dim, dim):
            raise ValueError(f"rho must be {dim}x{dim} for n_max={self.n_max}")

    @classmethod
    def fock(cls, n_max: int, n_s: int, n_l: int) -> "TwoModeState":
        """Pure Fock state |n_S, n_L>."""
        if not (0 <= n_s <= n_max and 0 <= n_l <= n_max):
            raise ValueError("Fock labels must lie within the truncation")
        dim = (n_max + 1) ** 2
        rho = np.zeros((dim, dim), dtype=complex)
        idx = n_s * (n_max + 1) + n_l
        rho[idx, idx] = 1.0
        return cls(n_max=n_max, rho=rho)

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def populations(self) -> np.ndarray:
        """Joint diagonal reshaped to (n_S, n_L)."""
        n = self.n_max + 1
        return np.real(np.diag(self.rho)).reshape(n, n)

    def level_population(self, mode: str, n: int) -> float:
        """Marginal probability of finding `n` quanta in mode "S" or "L"."""
        pops = self.populations()
        if mode == "S":
            return float(pops[n, :].sum())
        if mode == "L":
            return float(pops[:, n].sum())
        raise ValueError("mode must be 'S' or 'L'")

    def occupation(self, mode: str) -> float:
        """Mean quantum number of one mode."""
        ns = np.arange(self.n_max + 1)
        pops = self.populations()
        if mode == "S":
            return float(ns @ pops.sum(axis=1))
        if mode == "L":
            return float(ns @ pops.sum(axis=0))
        raise ValueError("mode must be 'S' or 'L'")

    def total_quanta(self) -> float:
        return self.occupation("S") + self.occupation("L")

    def validate(self) -> None:
        """Check Hermiticity, unit trace, and numerical positivity."""
        if np.max(np.abs(self.rho - self.rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("state is not Hermitian within tolerance")
        if abs(self.trace() - 1.0) > TRACE_TOL:
            raise ValueError("state trace deviates from one")
        eigs = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))
        if eigs.min() < -POSITIVITY_TOL:
            raise ValueError("state has a significantly negative eigenvalue")


def rate_scale(params: ExchangeParams) -> float:
    """Fastest rate in the generator; the RK4 step is 1/(RATE_FACTOR * it)."""
    return max(
        params.omega_ex,
        params.gamma_L * (params.n_bar + 1.0),
        params.gamma_S * (params.n_bar + 1.0),
        abs(params.detuning),
    )


def liouvillian(params: ExchangeParams, n_max: int):
    """Sparse (CSR) superoperator of the master equation, column-stacked vec.

    vec(A rho B) = (B^T kron A) vec(rho), and the ladder operators are real
    (C^dag = C^T): -i[H, rho] is -i(1 kron H - H^T kron 1), and a channel c
    of rate r adds r (c kron c - (1 kron c^T c + (c^T c)^T kron 1) / 2)."""
    from scipy import sparse  # oracle only; keeps scipy off the CLI path

    n = n_max + 1
    a = sparse.diags(np.sqrt(np.arange(1.0, n)), 1)
    a_s, a_l = sparse.kron(a, sparse.identity(n)), sparse.kron(sparse.identity(n), a)
    h = params.omega_ex * (a_s.T @ a_l + a_s @ a_l.T) + params.detuning * (a_s.T @ a_s)
    eye = sparse.identity(n * n)
    lsup = -1j * (sparse.kron(eye, h) - sparse.kron(h.T, eye))
    for a_i, gamma in ((a_s, params.gamma_S), (a_l, params.gamma_L)):
        for rate, c in ((gamma * (params.n_bar + 1.0), a_i), (gamma * params.n_bar, a_i.T)):
            cdc = c.T @ c
            lsup = lsup + rate * (
                sparse.kron(c, c) - 0.5 * (sparse.kron(eye, cdc) + sparse.kron(cdc.T, eye))
            )
    return lsup.tocsr()


def _check_truncation(state: TwoModeState) -> None:
    top = state.level_population("S", state.n_max) + state.level_population(
        "L", state.n_max
    )
    if top > TRUNCATION_LIMIT:
        raise TruncationError(
            f"population {top:.2e} at the n_max={state.n_max} boundary "
            f"exceeds {TRUNCATION_LIMIT:.0e}; raise n_max"
        )


def evolve(
    state: TwoModeState,
    params: ExchangeParams,
    t: float,
    method: str = "rk4",
    step: float | None = None,
) -> TwoModeState:
    """Propagate the state for a duration t.

    Parameters
    ----------
    state : TwoModeState
        Initial state; validated before propagation.
    params : ExchangeParams
        Generator rates. All-zero rates give identity evolution.
    t : float
        Duration in seconds, t >= 0.
    method : {"rk4", "expm"}
        Fixed-step RK4 on the vectorized master equation, or the exact
        action of the (time-independent) Liouvillian's exponential.
    step : float, optional
        RK4 step override; defaults to 1/(RATE_FACTOR * fastest rate).

    Returns
    -------
    TwoModeState
        The propagated state. Raises TruncationError if the top Fock level
        ends up with more than TRUNCATION_LIMIT population.
    """
    NON_NEGATIVE.check("t", t)
    state.validate()
    if t == 0.0 or rate_scale(params) == 0.0:
        return TwoModeState(n_max=state.n_max, rho=state.rho.copy())

    lsup = liouvillian(params, state.n_max)
    v = state.rho.flatten(order="F")
    if method == "expm":
        from scipy.sparse.linalg import expm_multiply

        v_t = expm_multiply(lsup * t, v)
    elif method == "rk4":
        h = step if step is not None else 1.0 / (RATE_FACTOR * rate_scale(params))
        n_steps = max(1, math.ceil(t / h))
        dt = t / n_steps
        for _ in range(n_steps):
            k1 = lsup @ v
            k2 = lsup @ (v + 0.5 * dt * k1)
            k3 = lsup @ (v + 0.5 * dt * k2)
            k4 = lsup @ (v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v_t = v
    else:
        raise ValueError("method must be 'rk4' or 'expm'")

    dim = state.n_max + 1
    out = TwoModeState(n_max=state.n_max, rho=v_t.reshape(dim * dim, dim * dim, order="F"))
    _check_truncation(out)
    return out


def swap_fidelity(
    params: ExchangeParams,
    n_max: int = 4,
    method: str = "rk4",
    step: float | None = None,
) -> float:
    """Probability of measuring n_L = 1 after a full exchange from |1, 0>.

    Evolves |n_S, n_L> = |1, 0> for t = pi/(2 omega_ex) and returns the
    marginal P(n_L = 1). Equals 1 for an ideal lossless resonant exchange;
    monotonically degraded by damping, bath occupation, and detuning.
    """
    POSITIVE.check("omega_ex", params.omega_ex)
    initial = TwoModeState.fock(n_max, 1, 0)
    t_ex = math.pi / (2.0 * params.omega_ex)
    final = evolve(initial, params, t_ex, method=method, step=step)
    return final.level_population("L", 1)
