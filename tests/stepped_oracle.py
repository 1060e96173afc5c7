"""Stepped Fock-space propagation: the test oracle of the exact branch blocks.

:func:`iongate.quantum.gate_propagator` builds the +2 block in closed form
from the trajectory integrals.  This module instead multiplies the +2
oscillator's short-time exponentials along the schedule: a segment whose
Omega and delta are constant on 65 samples in one shot, ramps by midpoint
(second-order Magnus) steps cut at equal increments of the phase budget
int max(|delta|, |Omega|) dt, at most 2 pi / steps_per_period each, each
step exponentiated by scipy's tridiagonal eigensolver.  It shares with the
package only the assembly of the other three blocks.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from iongate import quantum
from iongate.quantum import BranchPropagators, FockConfig, GateOutcome
from iongate.schedule import PulseSchedule
from iongate.semiclassical import propagate_displacement


def _step_unitary(delta: float, coupling: float, dt: float, dim: int) -> np.ndarray:
    """exp(-i H dt) for H = delta n + coupling (a + a^dag), tridiagonal in Fock space."""
    diag = delta * np.arange(dim, dtype=float)
    off = coupling * np.sqrt(np.arange(1, dim, dtype=float))
    if not np.any(off):
        return np.diag(np.exp(-1j * diag * dt))
    vals, vecs = eigh_tridiagonal(diag, off)
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.T


def stepped_blocks(schedule: PulseSchedule, fock: FockConfig,
                   steps_per_period: int = 50) -> BranchPropagators:
    """Branch propagators of one schedule, stepped in time."""
    u_plus = np.eye(fock.dim, dtype=complex)
    for seg in schedule.segments:
        u = np.linspace(0.0, seg.duration, 65)
        d, o = seg.delta(u), seg.omega(u)
        if np.ptp(d) == 0.0 and np.ptp(o) == 0.0:  # constant on the sample
            steps = [(d[0], o[0], seg.duration)]
        else:
            edges = seg.phase_edges(steps_per_period)
            mids = (edges[1:] + edges[:-1]) / 2.0
            steps = zip(seg.delta(mids), seg.omega(mids), np.diff(edges))
        for delta, omega, dt in steps:  # branch +2 couples with (s/2)*W*Omega = W*Omega
            u_plus = _step_unitary(delta, seg.sign * omega, dt, fock.dim) @ u_plus
    eta = propagate_displacement(schedule, branch_eigenvalue=0.0).eta_end
    return quantum._branch_blocks(u_plus, eta)


def spin_fock(spin, n: int, n_max: int) -> np.ndarray:
    """The normalized spin amplitudes (uu, ud, du, dd) times |n>, as a
    (4, n_max + 1) z-basis block."""
    spin = np.asarray(spin, dtype=complex)
    psi = np.zeros((4, n_max + 1), dtype=complex)
    psi[:, n] = spin / np.linalg.norm(spin)
    return psi


def stepped_propagate(schedule: PulseSchedule, psi0: np.ndarray, basis_phase: float = 0.0,
                      steps_per_period: int = 50) -> np.ndarray:
    """One (4, dim) block through :func:`stepped_blocks` at cutoff dim - 1."""
    props = stepped_blocks(schedule, FockConfig(n_max=psi0.shape[1] - 1), steps_per_period)
    return props.apply(psi0, basis_phase)


def outcome_from_state(psi: np.ndarray, schedule: PulseSchedule) -> GateOutcome:
    """Populations, fidelity and angle of the (4, dim) block that ``schedule``
    made from spin input |uu>; the fidelity is the spin overlap, traced over
    the motion, with the package's target for the schedule's handedness."""
    _, target = quantum._uu_input(schedule)
    return quantum._outcomes_from_densities((psi @ psi.conj().T)[None], target)[0]
