"""Gate outcomes of two qubits coupled to one motional mode.

The drive Hamiltonian is block diagonal in the eigenbasis of the collective
spin operator S_alpha = sigma_alpha,1 + sigma_alpha,2, so a pulse schedule
acts as four independent driven oscillators (branch eigenvalues +2, 0, 0,
-2), branch k ending as exp(i theta_k) exp(-i eta n) D(gamma_k).  Thermal
outcomes and scans follow in closed form from those endpoints as lists of
:class:`GateOutcome`, one per grid value (:func:`calibration_scan` also
returns its balanced crossing); an offset scan takes all of them from one
batched :func:`~iongate.semiclassical.branch_endpoints` call and evaluates
every offset's (4, 4) thermal kernel in one array, and a thermal sweep
evaluates every occupation on one set of endpoints.  The one Fock-space route,
:func:`gate_propagator`, builds the exact blocks from the same endpoints,
the +2 block alone, the rest by :func:`_branch_blocks`; nothing is
stepped in time.  D(gamma) comes from one numpy eigendecomposition, so
the module needs no scipy.  An outcome's fidelity is measured against
the fully entangling gate of the schedule's handedness, theta = +-pi/2
with the sign of the schedule's detuning.

States are stored spin-major in the measurement (z) basis with spin order
(uu, ud, du, dd): amplitude index = spin_index * (n_max + 1) + n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, GridError, ParameterError, TruncationError
from .schedule import PulseSchedule, SmoothGateParams, build_smooth_schedule
from .semiclassical import branch_endpoints, propagate_displacement

SPIN_LABELS = ("uu", "ud", "du", "dd")
BRANCH_EIGENVALUES = (2.0, 0.0, 0.0, -2.0)
TRUNCATION_GUARD = 1e-8
TAIL_MASS_LIMIT = 1e-6
NORM_TOL = 1e-9


@dataclass(frozen=True)
class FockConfig:
    """Motional-mode truncation settings."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterError("n_max must be >= 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def auto(cls, nbar: float = 0.0, max_displacement: float = 0.0) -> "FockConfig":
        """Truncation covering the thermal tail plus displacement excursions.

        The thermal part must hold every initial Fock state that carries
        non-negligible weight (tail mass below ``TAIL_MASS_LIMIT``), which
        for hot ensembles is stricter than the mean-plus-spread heuristic.
        """
        if nbar < 0:
            raise ParameterError("nbar must be >= 0")
        spread = nbar + 10.0 * math.sqrt(nbar + 1.0)
        tail = 0.0
        if nbar > 0:
            r = nbar / (nbar + 1.0)
            tail = math.log(TAIL_MASS_LIMIT) / math.log(r) - 1.0
        base = max(spread, tail)
        # a displacement by gamma on top of Fock state n spreads the number
        # distribution by O(|gamma| sqrt(n)), so the margin must grow with
        # the thermal base, not just the displacement
        margin = (3.0 * math.sqrt(base + 1.0) + 4.0) * max_displacement + 8.0
        return cls(n_max=max(8, math.ceil(base + margin)))


@dataclass(frozen=True)
class CompositeState:
    """Two qubits plus truncated mode, spin-major in the z basis."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (4 * (self.n_max + 1),):
            raise ParameterError("amplitude vector must have length 4*(n_max+1)")
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ParameterError("state norm must be 1 within 1e-9")

    @classmethod
    def from_spin_fock(cls, spin_amplitudes, n: int, n_max: int) -> "CompositeState":
        spin = np.asarray(spin_amplitudes, dtype=complex)
        if spin.shape != (4,):
            raise ParameterError("need 4 spin amplitudes (uu, ud, du, dd)")
        if not 0 <= n <= n_max:
            raise ParameterError("Fock index outside truncation")
        amps = np.zeros((4, n_max + 1), dtype=complex)
        amps[:, n] = spin / np.linalg.norm(spin)
        return cls(amplitudes=amps.ravel(), n_max=n_max)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def block(self) -> np.ndarray:
        """View as a (4, n_max+1) array, spin index first."""
        return self.amplitudes.reshape(4, self.n_max + 1)

    def spin_populations(self) -> dict[str, float]:
        probs = np.sum(np.abs(self.block()) ** 2, axis=1)
        return dict(zip(SPIN_LABELS, probs.tolist()))

    def reduced_spin_density(self) -> np.ndarray:
        b = self.block()
        return b @ b.conj().T


@dataclass(frozen=True)
class ThermalEnsemble:
    """Thermal state of mean occupation ``nbar``.

    The closed-form :func:`thermal_average` reads only ``nbar``; the
    truncated, renormalized ``weights`` that the ``props=`` oracle sums
    over are built on first use.
    """

    nbar: float

    def __post_init__(self):
        if not math.isfinite(self.nbar):
            raise ParameterError("nbar must be finite")
        if self.nbar < 0:
            raise ParameterError("nbar must be >= 0")

    @classmethod
    def build(cls, nbar: float) -> "ThermalEnsemble":
        return cls(nbar=float(nbar))

    @cached_property
    def weights(self) -> np.ndarray:
        if self.nbar == 0:
            return np.array([1.0])
        r = self.nbar / (self.nbar + 1.0)
        # smallest N with residual mass r^(N+1) below the limit
        n_top = math.ceil(math.log(TAIL_MASS_LIMIT) / math.log(r)) - 1
        while r ** (n_top + 1) >= TAIL_MASS_LIMIT:
            n_top += 1
        w = r ** np.arange(n_top + 1) / (self.nbar + 1.0)
        return w / w.sum()

    @property
    def n_states(self) -> int:
        return self.weights.size

    @property
    def tail_mass(self) -> float:
        return (self.nbar / (self.nbar + 1.0)) ** self.n_states


@dataclass(frozen=True)
class GateOutcome:
    """Spin-resolved result of one gate (or thermal average of gates)."""

    p_uu: float
    p_dd: float
    p_odd: float
    fidelity: float
    spin_purity: float
    gate_angle: float

    def __post_init__(self):
        total = self.p_uu + self.p_dd + self.p_odd
        if abs(total - 1.0) > 1e-9:
            raise ParameterError("spin populations must sum to 1 within 1e-9")
        if not -1e-9 <= self.fidelity <= 1.0 + 1e-9:
            raise ParameterError("fidelity must lie in [0, 1]")


def gate_eigenbasis(basis_phase: float = 0.0) -> np.ndarray:
    """Rows are the S_alpha eigenvectors (++, +-, -+, --) in the z basis.

    The single-qubit operator is sigma_phi = cos(phi) sigma_x + sin(phi)
    sigma_y; its +1/-1 eigenvectors are (|u> +- e^{i phi}|d>)/sqrt(2).
    """
    ph = np.exp(-1j * basis_phase)
    u = np.array([[1.0, ph], [1.0, -ph]], dtype=complex) / np.sqrt(2.0)
    # np.kron(u, u), spelled out: BranchPropagators.apply calls this per gate
    return (u[:, None, :, None] * u[None, :, None, :]).reshape(4, 4)


@dataclass(frozen=True)
class BranchPropagators:
    """Gate propagator split into S_alpha eigenbranches.

    ``blocks[k]`` evolves the oscillator conditioned on eigenbranch k in
    the (++, +-, -+, --) ordering.
    """

    blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.blocks.shape[-1]

    def overlap_kernel(self) -> np.ndarray:
        """kernel[i, j, n] = <n| U_j^dag U_i |n>, the per-Fock spin kernel."""
        return np.einsum("imn,jmn->ijn", self.blocks, self.blocks.conj())

    def apply(self, block: np.ndarray, basis_phase: float) -> np.ndarray:
        """Evolve a (4, dim) z-basis block in the S_phi basis, guarding norm and cutoff."""
        basis = gate_eigenbasis(basis_phase)
        psi = basis @ block
        return _leave_gate_basis(basis, (self.blocks @ psi[:, :, None])[:, :, 0])


def _branch_blocks(u_plus: np.ndarray, eta: float) -> BranchPropagators:
    """All four branch blocks from the +2 block U_+ and the free phase eta.

    The null pair evolves as exp(-i eta n); the -2 branch feels the opposite
    force, so its block is P U_+ P with P = diag((-1)^n).
    """
    dim = u_plus.shape[-1]
    parity = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    u_null = np.diag(np.exp(-1j * eta * np.arange(dim)))
    u_minus = parity[:, None] * u_plus * parity[None, :]
    return BranchPropagators(blocks=np.stack([u_plus, u_null, u_null, u_minus]))


def gate_propagator(schedule: PulseSchedule, fock: FockConfig,
                    rtol: float = 1e-11) -> BranchPropagators:
    """Exact branch propagators from the trajectory integrals of one kernel call.

    The +2 block factorizes as exp(i theta) exp(-i eta n) D(gamma) with the
    endpoints of :func:`branch_endpoints` (Sorensen & Molmer, PRA 62,
    022311, 2000); :func:`_branch_blocks` derives the rest.  D(gamma) =
    exp(G) with G = gamma a^dag - conj(gamma) a anti-Hermitian, so it is
    exp(-i H) for the Hermitian H = iG.
    """
    (gamma,), (theta,), (eta,) = branch_endpoints(schedule, [0.0], 2.0, rtol=rtol)
    a = np.diag(np.sqrt(np.arange(1, fock.dim, dtype=float)), k=1)
    disp = _hermitian_exp(1j * (gamma * a.conj().T - np.conj(gamma) * a))
    null = np.diag(np.exp(-1j * eta * np.arange(fock.dim)))
    return _branch_blocks(np.exp(1j * theta) * (null @ disp), eta)


branch_factorized_blocks = gate_propagator


def propagate(schedule: PulseSchedule, psi0: CompositeState) -> CompositeState:
    """Evolve a composite state through a schedule by the exact blocks of
    :func:`gate_propagator` at the state's Fock cutoff."""
    props = gate_propagator(schedule, FockConfig(n_max=psi0.n_max))
    return CompositeState(amplitudes=props.apply(psi0.block(), 0.0).ravel(), n_max=psi0.n_max)


def _guard_state(norm, top) -> None:
    """Raise unless every norm is within NORM_TOL of 1 and every population
    at the Fock cutoff is at most TRUNCATION_GUARD (NaN fails both)."""
    if not np.all(np.abs(np.asarray(norm) - 1.0) <= NORM_TOL):
        raise ConvergenceError("norm drift exceeded 1e-9 during propagation")
    if not np.all(np.asarray(top) <= TRUNCATION_GUARD):
        raise TruncationError("population at the Fock cutoff exceeds 1e-8; "
                              "increase n_max")


def _leave_gate_basis(basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rotate a propagated gate-basis block back to z, guarding norm and cutoff."""
    amps = basis.conj().T @ out
    _guard_state(np.linalg.norm(amps), np.sum(np.abs(out[:, -1]) ** 2))
    return amps


def _hermitian_exp(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h, from one eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _target_spin(psi0_spin: np.ndarray, schedule: PulseSchedule) -> np.ndarray:
    """The fully entangling gate of the schedule's handedness applied to
    ``psi0_spin``: theta = +-pi/2 with the sign of its detuning."""
    target_angle = math.copysign(math.pi / 2, schedule.delta(0.0))
    basis = gate_eigenbasis()
    phases = np.exp(1j * target_angle * (np.asarray(BRANCH_EIGENVALUES) / 2.0) ** 2)
    return basis.conj().T @ (phases * (basis @ psi0_spin))


def _outcomes_from_densities(rho_z: np.ndarray, target: np.ndarray) -> list[GateOutcome]:
    """One outcome per z-basis spin density in an (n, 4, 4) stack."""
    pops = np.real(np.diagonal(rho_z, axis1=1, axis2=2))
    fid = np.real(target.conj() @ rho_z @ target)
    purity = np.real(np.trace(rho_z @ rho_z, axis1=1, axis2=2))
    basis = gate_eigenbasis()
    rho_e = basis @ rho_z @ basis.conj().T
    coherence = rho_e[:, 0, 1] + rho_e[:, 0, 2] + rho_e[:, 3, 1] + rho_e[:, 3, 2]
    angle = np.angle(coherence)
    return [GateOutcome(p_uu=float(p[0]), p_dd=float(p[3]), p_odd=float(p[1] + p[2]),
                        fidelity=min(max(float(f), 0.0), 1.0), spin_purity=float(pur),
                        gate_angle=float(ang) if abs(c) > 1e-12 else float("nan"))
            for p, f, pur, ang, c in zip(pops, fid, purity, angle, coherence)]


def outcome_from_state(state: CompositeState, psi0_spin,
                       schedule: PulseSchedule) -> GateOutcome:
    """Populations, fidelity and angle of the composite state that
    ``schedule`` made from ``psi0_spin``.

    The fidelity is the spin overlap, traced over the motion, with the
    fully entangling gate of the schedule's handedness applied to
    ``psi0_spin``.
    """
    spin = np.asarray(psi0_spin, dtype=complex)
    spin = spin / np.linalg.norm(spin)
    target = _target_spin(spin, schedule)
    return _outcomes_from_densities(state.reduced_spin_density()[None], target)[0]


def _displacement_kernel(gamma_end: np.ndarray, theta_end: np.ndarray,
                         nbar: float) -> np.ndarray:
    """Thermal means of U_j^dag U_i from +2 branch endpoints, one (4, 4) per entry.

    Branches (++, +-, -+, --) end at gamma = (g, 0, 0, -g), theta = (t, 0,
    0, t), so U_j^dag U_i = exp(i(theta_i - theta_j) - i
    Im(gamma_j conj(gamma_i))) D(gamma_i - gamma_j), and <D(b)> =
    exp(-(nbar+1/2)|b|^2) (Sorensen & Molmer, PRA 62, 022311, 2000).
    """
    gamma = gamma_end[:, None] * np.array([1.0, 0.0, 0.0, -1.0])
    theta = theta_end[:, None] * np.array([1.0, 0.0, 0.0, 1.0])
    gi, gj = gamma[:, :, None], gamma[:, None, :]
    return np.exp(1j * (theta[:, :, None] - theta[:, None, :] - np.imag(gj * gi.conj()))
                  - (nbar + 0.5) * np.abs(gi - gj) ** 2)


def _thermal_outcomes(schedule: PulseSchedule, offsets: np.ndarray, ensembles,
                      psi0_spin, fock: FockConfig | None = None,
                      props: BranchPropagators | None = None) -> list[GateOutcome]:
    """Thermal outcomes under each static detuning offset, ensemble by ensemble,
    from one endpoint integration; see :func:`thermal_average`.  The
    ``props`` oracle takes a single ensemble."""
    spin = np.asarray(psi0_spin, dtype=complex)
    spin = spin / np.linalg.norm(spin)
    basis = gate_eigenbasis()
    spin_eig = basis @ spin
    target = _target_spin(spin, schedule)

    if props is None:
        if fock is not None:
            raise ParameterError("a Fock cutoff applies only to the props= oracle")
        gamma, theta, _ = branch_endpoints(schedule, offsets)
        kernels = [_displacement_kernel(gamma, theta, e.nbar) for e in ensembles]
    else:
        if fock is not None and fock.dim != props.dim:
            raise ParameterError("FockConfig truncation differs from the propagators")
        (ensemble,) = ensembles
        if ensemble.n_states > props.dim:
            raise TruncationError("ensemble needs more Fock states than the truncation")
        w = np.pad(ensemble.weights, (0, props.dim - ensemble.n_states))
        kernels = [(props.overlap_kernel() @ w)[None]]
        # guard: thermally weighted population at the cutoff row
        top = float(np.abs(spin_eig) ** 2 @ (np.abs(props.blocks[:, -1, :]) ** 2 @ w))
        if top > TRUNCATION_GUARD:
            raise TruncationError("thermal population at the Fock cutoff exceeds 1e-8")
    outcomes = []
    for kernel in kernels:
        rho_eig = (spin_eig[:, None] * spin_eig.conj()[None, :]) * kernel
        rho_z = basis.conj().T @ rho_eig @ basis
        outcomes += _outcomes_from_densities(rho_z, target)
    return outcomes


def thermal_average(schedule: PulseSchedule, ensemble: ThermalEnsemble,
                    psi0_spin=(1.0, 0.0, 0.0, 0.0),
                    fock: FockConfig | None = None,
                    props: BranchPropagators | None = None) -> GateOutcome:
    """Thermally averaged gate outcome over initial Fock states.

    The spin density rho_ij = c_i conj(c_j) <U_j^dag U_i> (c: the spin state
    in the gate eigenbasis) is closed-form in the branch endpoints, over the
    untruncated thermal state of ``ensemble.nbar``.

    Given branch propagators ``props`` (the exact ones of
    :func:`gate_propagator`, or blocks built another way, such as by
    stepping), their overlap kernel is summed over the ``ensemble`` weights
    instead, the Fock-space oracle of the closed form; ``fock``, accepted
    only with ``props``, must match its cutoff.
    """
    return _thermal_outcomes(schedule, np.zeros(1), [ensemble], psi0_spin, fock, props)[0]


def thermal_sweep(schedule: PulseSchedule, ensembles) -> list[GateOutcome]:
    """:func:`thermal_average` of one schedule for each of ``ensembles``, in
    closed form from one :func:`branch_endpoints` call."""
    return _thermal_outcomes(schedule, np.zeros(1), list(ensembles), (1.0, 0.0, 0.0, 0.0))


def _max_branch_displacement(schedule: PulseSchedule, gates: int = 0) -> float:
    """Largest |gamma| of the +2 branch within one gate, plus |gamma_end| per
    gate of a ``gates``-gate sequence: an unclosed loop's residual
    displacements can add up from gate to gate."""
    traj = propagate_displacement(schedule, branch_eigenvalue=2.0, rtol=1e-8)
    return float(np.max(np.abs(traj.gamma))) + gates * float(abs(traj.gamma_end))


def calibration_scan(base: SmoothGateParams, delta_min_grid,
                     ensemble: ThermalEnsemble) -> tuple[list[GateOutcome], float]:
    """Sweep delta_min at fixed Omega_g and locate the equal-population point.

    Returns the thermal outcome at each grid value and the balanced
    delta_min.  The balanced point P(uu) = P(dd) marks the half-pi
    entangling angle; it is found by linear interpolation of P(uu) - P(dd)
    between grid points.
    """
    grid = np.asarray(delta_min_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridError("need at least two delta_min values")
    if np.any(np.sign(grid) != np.sign(base.delta_max)):
        raise ParameterError("delta_min grid must share the sign of delta_max")
    outcomes = [thermal_average(build_smooth_schedule(base.with_delta_min(dm)), ensemble)
                for dm in grid]
    diff = np.array([o.p_uu - o.p_dd for o in outcomes])
    signs = np.sign(diff)
    flips = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
    if flips.size == 0:
        raise ConvergenceError("delta_min grid does not bracket the balanced point")
    k = flips[0]
    crossing = grid[k] - diff[k] * (grid[k + 1] - grid[k]) / (diff[k + 1] - diff[k])
    return outcomes, float(crossing)


def offset_scan(schedule: PulseSchedule, offsets, ensemble: ThermalEnsemble,
                psi0_spin=(1.0, 0.0, 0.0, 0.0)) -> list[GateOutcome]:
    """Outcomes of one schedule under constant mode-frequency offsets, one
    per offset.

    One :func:`branch_endpoints` call serves the whole scan; each outcome
    equals :func:`thermal_average` of ``schedule.with_detuning_offset(eps)``.
    Non-finite offsets raise ParameterError.
    """
    offs = np.asarray(offsets, dtype=float)
    if offs.ndim != 1 or offs.size == 0:
        raise GridError("need a 1-D array of offsets")
    return _thermal_outcomes(schedule, offs, [ensemble], psi0_spin)
