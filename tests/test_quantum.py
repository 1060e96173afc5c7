"""Tests for full quantum propagation of spin-dependent-force gates."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from iongate import cli, quantum
from iongate.errors import ConvergenceError, GridError, ParameterError, TruncationError
from iongate.quantum import (
    BRANCH_EIGENVALUES,
    CompositeState,
    FockConfig,
    GateOutcome,
    ThermalEnsemble,
    branch_factorized_blocks,
    calibration_scan,
    gate_eigenbasis,
    gate_propagator,
    offset_scan,
    outcome_from_state,
    propagate,
    thermal_average,
    _max_branch_displacement,
)
from iongate.schedule import (
    PulseSchedule,
    Segment,
    SmoothGateParams,
    WalshGateParams,
    build_smooth_schedule,
    build_walsh_schedule,
)
from iongate.semiclassical import branch_endpoints, calibrate_omega, propagate_displacement
from stepped_oracle import stepped_blocks, stepped_propagate

TWO_PI = 2.0 * math.pi


def flat_segment(duration, omega, delta, sign=1.0, label="seg"):
    return Segment(
        duration,
        lambda t, v=omega: np.full_like(np.asarray(t, dtype=float), v),
        lambda t, v=delta: np.full_like(np.asarray(t, dtype=float), v),
        sign=sign,
        const_omega=omega,
        const_delta=delta,
        label=label,
    )


def sign_flip_schedule(rng, n_segments=4):
    # Drive sign is the only quantity allowed to jump across segment joins,
    # so random piecewise-constant schedules randomize signs and durations.
    omega = TWO_PI * rng.uniform(1e3, 6e3)
    delta = TWO_PI * rng.uniform(8e3, 40e3) * rng.choice([-1.0, 1.0])
    segs = [
        flat_segment(rng.uniform(5e-6, 60e-6), omega, delta,
                     sign=float(rng.choice([-1.0, 1.0])), label=f"s{k}")
        for k in range(n_segments)
    ]
    return PulseSchedule(segs)


def max_outcome_difference(a, b):
    return max(abs(getattr(a, k) - getattr(b, k))
               for k in ("p_uu", "p_dd", "p_odd", "fidelity", "spin_purity"))


def reassemble_from_branches(schedule, spin, n0, fock, basis_phase=0.0, rtol=1e-11):
    # rows of gate_eigenbasis are eigen-bras: components = basis @ psi
    basis = gate_eigenbasis(basis_phase)
    coeff = basis @ np.asarray(spin, dtype=complex)
    blocks = gate_propagator(schedule, fock, rtol=rtol).blocks
    out = np.zeros((4, fock.dim), dtype=complex)
    for k in range(4):
        out += coeff[k] * np.outer(basis[k].conj(), blocks[k][:, n0])
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# types


def test_fock_config_basics():
    cfg = FockConfig(n_max=12)
    assert cfg.dim == 13
    with pytest.raises(ParameterError):
        FockConfig(n_max=0)
    auto = FockConfig.auto(nbar=0.0, max_displacement=0.5)
    assert auto.n_max >= 8
    hotter = FockConfig.auto(nbar=5.0, max_displacement=0.5)
    wider = FockConfig.auto(nbar=0.0, max_displacement=2.0)
    assert hotter.n_max > auto.n_max
    assert wider.n_max > auto.n_max


def test_auto_fock_covers_thermal_ensemble():
    ens = ThermalEnsemble.build(3.5)
    cfg = FockConfig.auto(nbar=3.5, max_displacement=0.8)
    # every retained thermal state must fit below the cutoff with room to move
    assert cfg.dim > ens.n_states + 8


def test_composite_state_shapes_and_populations():
    psi = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=2, n_max=5)
    pops = psi.spin_populations()
    assert list(pops) == ["uu", "ud", "du", "dd"]
    assert list(pops.values()) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)
    fock = np.sum(np.abs(psi.block()) ** 2, axis=0)
    assert fock[2] == pytest.approx(1.0, abs=1e-12)
    rho = psi.reduced_spin_density()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        CompositeState(np.zeros(24, dtype=complex), n_max=5)


def test_thermal_ensemble_weights():
    cold = ThermalEnsemble.build(0.0)
    assert cold.n_states == 1
    assert cold.weights[0] == pytest.approx(1.0)
    ens = ThermalEnsemble.build(3.5)
    # ground-state weight of a geometric distribution is 1/(nbar+1)
    assert ens.weights[0] == pytest.approx(1.0 / 4.5, rel=1e-5)
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert ens.tail_mass < 1e-6
    with pytest.raises(ParameterError):
        ThermalEnsemble.build(-0.5)


@pytest.mark.parametrize("nbar", [float("nan"), float("inf")])
def test_thermal_ensemble_rejects_non_finite_nbar(nbar):
    with pytest.raises(ParameterError):
        ThermalEnsemble.build(nbar)


def test_closed_form_scans_at_huge_occupation():
    # the closed forms read only nbar; the truncated weights (1.4e10 states
    # at nbar = 1e9) belong to the props= oracle alone
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    hot = ThermalEnsemble.build(1e9)
    sweep = quantum.thermal_sweep(sched, [ThermalEnsemble.build(0.0), hot])
    scan = offset_scan(sched, TWO_PI * np.array([-1e3, 0.0, 1e3]), hot)
    rows = [(o.p_uu, o.p_dd, o.p_odd, o.fidelity) for o in sweep + scan]
    for p_uu, p_dd, p_odd, fidelity in rows:
        assert min(p_uu, p_dd, p_odd) >= -1e-12
        assert p_uu + p_dd + p_odd == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= fidelity <= 1.0


def test_gate_outcome_validation():
    GateOutcome(p_uu=0.5, p_dd=0.5, p_odd=0.0, fidelity=1.0,  # a valid outcome is accepted
                spin_purity=1.0, gate_angle=-math.pi / 2)
    with pytest.raises(ParameterError):
        GateOutcome(p_uu=0.7, p_dd=0.5, p_odd=0.0, fidelity=1.0,
                    spin_purity=1.0, gate_angle=0.0)
    with pytest.raises(ParameterError):
        GateOutcome(p_uu=0.5, p_dd=0.5, p_odd=0.0, fidelity=1.2,
                    spin_purity=1.0, gate_angle=0.0)


def test_gate_eigenbasis_diagonalizes_collective_drive():
    for phi in (0.0, 0.7, -1.3):
        basis = gate_eigenbasis(phi)
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-14)
        sigma = np.array([[0.0, np.exp(-1j * phi)], [np.exp(1j * phi), 0.0]])
        coll = np.kron(sigma, np.eye(2)) + np.kron(np.eye(2), sigma)
        diag = basis @ coll @ basis.conj().T
        assert np.allclose(diag, np.diag(BRANCH_EIGENVALUES), atol=1e-14)


# ---------------------------------------------------------------------------
# propagation


def test_zero_coupling_leaves_spin_untouched():
    sched = PulseSchedule([flat_segment(40e-6, 0.0, TWO_PI * 25e3)])
    rng = np.random.default_rng(3)
    for _ in range(4):
        spin = rng.normal(size=4) + 1j * rng.normal(size=4)
        spin /= np.linalg.norm(spin)
        psi0 = CompositeState.from_spin_fock(spin, n=1, n_max=12)
        out = propagate(sched, psi0)
        assert list(out.spin_populations().values()) == pytest.approx(
            np.abs(spin) ** 2, abs=1e-12)
        # motional phase exp(-i eta n) on |n=1> is global here, populations only
        assert np.sum(np.abs(out.block()[:, 1]) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_ideal_walsh_gate_makes_bell_state():
    p = WalshGateParams.calibrated(1, TWO_PI * 5e3)
    sched = build_walsh_schedule(p)
    psi0 = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=0, n_max=24)
    out = outcome_from_state(propagate(sched, psi0), (1.0, 0.0, 0.0, 0.0), sched)
    assert out.p_uu == pytest.approx(0.5, abs=1e-9)
    assert out.p_dd == pytest.approx(0.5, abs=1e-9)
    assert out.p_odd < 1e-8
    assert out.fidelity == pytest.approx(1.0, abs=1e-9)
    assert out.gate_angle == pytest.approx(-math.pi / 2, abs=1e-9)


def test_gate_angle_tracks_drive_strength():
    # closed loop at constant drive: angle = Omega^2 t / delta, sign of delta
    delta = TWO_PI * 30e3
    t = 3 * TWO_PI / delta
    for omega, sgn in ((TWO_PI * 3e3, 1.0), (TWO_PI * 4.5e3, -1.0)):
        sched = PulseSchedule([flat_segment(t, omega, sgn * delta)])
        expected = sgn * omega**2 * t / delta
        psi0 = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=0, n_max=30)
        out = outcome_from_state(propagate(sched, psi0), (1.0, 0.0, 0.0, 0.0), sched)
        assert out.gate_angle == pytest.approx(expected, abs=1e-8)
        assert out.p_uu == pytest.approx(math.cos(expected / 2) ** 2, abs=1e-9)


def test_forced_branch_is_displaced_vacuum():
    # open loop: the forced-branch column over |0> must be a coherent state
    omega, delta = TWO_PI * 4e3, TWO_PI * 20e3
    t = 0.3 * TWO_PI / delta
    sched = PulseSchedule([flat_segment(t, omega, delta)])
    gamma = -(omega / delta) * (np.exp(1j * delta * t) - 1.0)
    vec = gate_propagator(sched, FockConfig(n_max=30)).blocks[0][:, 0]
    expected_angle = omega**2 * (t - math.sin(delta * t) / delta) / delta
    theta = propagate_displacement(sched, branch_eigenvalue=2.0).theta_end
    assert theta == pytest.approx(expected_angle, abs=1e-9)
    n = np.arange(8)
    coherent = np.exp(-0.5 * abs(gamma) ** 2) * abs(gamma) ** n / np.sqrt(
        [math.factorial(int(k)) for k in n])
    assert np.abs(vec[:8]) == pytest.approx(coherent, abs=1e-9)


def test_null_branch_only_rotates_fock_phases():
    sched = sign_flip_schedule(np.random.default_rng(11))
    blocks = gate_propagator(sched, FockConfig(n_max=20)).blocks
    for vec in (blocks[1][:, 3], blocks[2][:, 3]):
        assert np.abs(vec[3]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(np.delete(vec, 3)) < 1e-12


def test_branch_factorization_matches_full_propagation():
    # independent routes: stepped unitaries vs semiclassical displacement
    assert gate_propagator is branch_factorized_blocks
    rng = np.random.default_rng(17)
    for _ in range(5):
        sched = sign_flip_schedule(rng, n_segments=int(rng.integers(2, 6)))
        fock = FockConfig(n_max=60)
        spin = rng.normal(size=4) + 1j * rng.normal(size=4)
        spin /= np.linalg.norm(spin)
        for n0 in (0, 3):
            psi0 = CompositeState.from_spin_fock(spin, n=n0, n_max=fock.n_max)
            full = stepped_propagate(sched, psi0).amplitudes
            fact = reassemble_from_branches(sched, spin, n0, fock)
            assert np.linalg.norm(full - fact) < 1e-9


def test_branch_factorization_matches_full_on_ramped_schedule():
    p = SmoothGateParams(delta_max=-TWO_PI * 300e3, delta_min=-TWO_PI * 30e3,
                         omega_g=TWO_PI * 5e3, tau_g=2e-6, tau_d=20e-6,
                         t_c=0.0, j=3)
    sched = build_smooth_schedule(p)
    fock = FockConfig(n_max=40)
    spin = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    psi0 = CompositeState.from_spin_fock(spin, n=0, n_max=fock.n_max)
    # midpoint stepping is second order: 1.1e-5 at 100 steps/period, /4 per doubling
    full = stepped_propagate(sched, psi0, steps_per_period=400).amplitudes
    fact = reassemble_from_branches(sched, spin, 0, fock)
    assert np.linalg.norm(full - fact) < 1e-6


def test_factorized_blocks_agree_with_stepped_blocks():
    sched = sign_flip_schedule(np.random.default_rng(29), n_segments=3)
    fock = FockConfig(n_max=50)
    stepped = stepped_blocks(sched, fock)
    fact = gate_propagator(sched, fock)
    # compare low columns only; both routes disagree near the cutoff edge
    for k in range(4):
        diff = stepped.blocks[k][:, :10] - fact.blocks[k][:, :10]
        assert np.abs(diff).max() < 1e-9


def test_factorized_blocks_make_one_kernel_call(monkeypatch):
    # the -2 block is the parity image of the +2 one, so one trajectory suffices
    calls = []

    def counting(schedule, offsets, branch_eigenvalue, **kwargs):
        calls.append(branch_eigenvalue)
        return branch_endpoints(schedule, offsets, branch_eigenvalue, **kwargs)

    monkeypatch.setattr(quantum, "branch_endpoints", counting)
    gate_propagator(sign_flip_schedule(np.random.default_rng(3)), FockConfig(n_max=20))
    assert calls == [2.0]


@pytest.mark.parametrize("gamma_abs", [1.1e-15, 2.5e-5, 0.54, 3.0])
@pytest.mark.parametrize("dim", [33, 92, 184])
def test_factorized_blocks_match_expm_oracle_without_subnormals(monkeypatch, dim, gamma_abs):
    # endpoints from a closed loop's round-off to the 20 us gate's 0.54 and beyond
    gamma = gamma_abs * np.exp(0.7j)
    endpoints = (np.array([gamma]), np.array([0.3]), np.array([1.1]))
    monkeypatch.setattr(quantum, "branch_endpoints", lambda *args, **kwargs: endpoints)
    sched = build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3))
    blocks = gate_propagator(sched, FockConfig(n_max=dim - 1)).blocks
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    disp = expm(gamma * a.T - np.conj(gamma) * a)
    u_plus = np.exp(0.3j) * np.exp(-1.1j * np.arange(dim))[:, None] * disp
    assert np.abs(blocks - quantum._branch_blocks(u_plus, 1.1).blocks).max() <= 1e-13
    # subnormal entries slow every BLAS product the full SLERB model makes
    parts = np.abs(blocks.view(float))
    assert np.all(parts[parts != 0.0] >= np.finfo(float).tiny)


@pytest.mark.parametrize("route", ["stepped", "factorized"])
def test_every_block_follows_from_the_plus_two_block(route):
    sched = sign_flip_schedule(np.random.default_rng(31), n_segments=3)
    fock = FockConfig(n_max=24)
    build = stepped_blocks if route == "stepped" else gate_propagator
    blocks = build(sched, fock).blocks
    parity = np.where(np.arange(fock.dim) % 2 == 0, 1.0, -1.0)
    eta = propagate_displacement(sched, 0.0).eta_end
    assert np.array_equal(blocks[3], parity[:, None] * blocks[0] * parity[None, :])
    assert np.array_equal(blocks[1], np.diag(np.exp(-1j * eta * np.arange(fock.dim))))
    assert np.array_equal(blocks[2], blocks[1])


def test_propagation_preserves_norm():
    sched = sign_flip_schedule(np.random.default_rng(5))
    psi0 = CompositeState.from_spin_fock((0.0, 1.0, 0.0, 0.0), n=2, n_max=50)
    out = propagate(sched, psi0)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_truncation_error_when_cutoff_too_low():
    omega, delta = TWO_PI * 8e3, TWO_PI * 10e3
    sched = PulseSchedule([flat_segment(0.5 * TWO_PI / delta, omega, delta)])
    psi0 = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=0, n_max=6)
    with pytest.raises(TruncationError):
        propagate(sched, psi0)


def test_propagate_parameter_errors():
    with pytest.raises(ParameterError, match="outside truncation"):
        CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=40, n_max=20)


# ---------------------------------------------------------------------------
# thermal averaging


def test_thermal_average_matches_explicit_fock_sum():
    # the props= oracle is the weighted sum of per-Fock-state propagations,
    # and the closed form agrees with it up to the ensemble's truncated tail
    sched = sign_flip_schedule(np.random.default_rng(23), n_segments=3)
    ens = ThermalEnsemble.build(1.2)
    fock = FockConfig.auto(1.2, 1.5)
    spin = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    avg = thermal_average(sched, ens, psi0_spin=spin, fock=fock,
                          props=gate_propagator(sched, fock))
    rho = np.zeros((4, 4), dtype=complex)
    for n, w in enumerate(ens.weights):
        psi0 = CompositeState.from_spin_fock(spin, n=n, n_max=fock.n_max)
        rho += w * stepped_propagate(sched, psi0).reduced_spin_density()
    basis = gate_eigenbasis(0.0)
    phases = np.exp(-1j * (math.pi / 2) * (np.array(BRANCH_EIGENVALUES) / 2) ** 2)
    target = basis.conj().T @ (phases * (basis @ spin))
    assert avg.p_uu == pytest.approx(rho[0, 0].real, abs=1e-12)
    assert avg.p_odd == pytest.approx((rho[1, 1] + rho[2, 2]).real, abs=1e-12)
    assert avg.fidelity == pytest.approx(
        float((target.conj() @ rho @ target).real), abs=1e-12)
    closed = thermal_average(sched, ens, psi0_spin=spin)
    assert max_outcome_difference(closed, avg) <= 2.0 * ens.tail_mass + 1e-12


def test_thermal_average_at_zero_temperature_matches_pure_state():
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    ens = ThermalEnsemble.build(0.0)
    avg = thermal_average(sched, ens)
    psi0 = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=0, n_max=30)
    pure = outcome_from_state(propagate(sched, psi0), (1.0, 0.0, 0.0, 0.0), sched)
    assert avg.fidelity == pytest.approx(pure.fidelity, abs=1e-10)
    assert avg.p_uu == pytest.approx(pure.p_uu, abs=1e-10)


def test_offset_infidelity_is_affine_in_thermal_occupation():
    # static detuning error: infidelity grows linearly with 2*nbar + 1
    p = WalshGateParams.calibrated(2, TWO_PI * 5e3)
    sched = build_walsh_schedule(p).with_detuning_offset(TWO_PI * 300.0)
    nbars = np.array([0.0, 2.0, 4.0, 8.0])
    infid = np.array([
        1.0 - thermal_average(sched, ThermalEnsemble.build(nb)).fidelity
        for nb in nbars
    ])
    x = 2.0 * nbars + 1.0
    slope, intercept = np.polyfit(x, infid, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((infid - fit) ** 2))
    ss_tot = float(np.sum((infid - infid.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.99
    assert slope > 0


def test_truncation_convergence_under_cutoff_doubling():
    p = WalshGateParams.calibrated(2, TWO_PI * 5e3)
    sched = build_walsh_schedule(p).with_detuning_offset(TWO_PI * 400.0)
    ens = ThermalEnsemble.build(2.0)
    base = FockConfig.auto(2.0, 1.0)
    infid = []
    for fock in (base, FockConfig(n_max=2 * base.n_max)):
        props = gate_propagator(sched, fock)
        infid.append(1.0 - thermal_average(sched, ens, fock=fock, props=props).fidelity)
    lo, hi = infid
    assert abs(hi - lo) < 1e-6 * abs(lo)


def test_thermal_average_rejects_undersized_cutoff():
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    ens = ThermalEnsemble.build(3.5)
    small = FockConfig(n_max=ens.n_states - 5)
    with pytest.raises(TruncationError):
        thermal_average(sched, ens, props=gate_propagator(sched, small))
    # every initial state fits, but the displacement pushes weight onto the cutoff
    shifted = sched.with_detuning_offset(TWO_PI * 2e3)
    tight = FockConfig(n_max=ens.n_states)
    with pytest.raises(TruncationError, match="cutoff"):
        thermal_average(shifted, ens, props=gate_propagator(shifted, tight))
    # a cutoff belongs to the Fock-space oracle and must match its propagators
    with pytest.raises(ParameterError):
        thermal_average(sched, ens, fock=FockConfig(n_max=80))
    props = gate_propagator(sched, FockConfig(n_max=80))
    with pytest.raises(ParameterError):
        thermal_average(sched, ens, fock=FockConfig(n_max=81), props=props)


# ---------------------------------------------------------------------------
# closed form against the Fock-space oracle


@pytest.fixture(scope="module")
def calibration_schedule():
    base = SmoothGateParams(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 21.7e3,
                            omega_g=TWO_PI * 6e3, tau_g=5e-6, tau_d=100e-6,
                            t_c=15.8e-6, j=3)
    return build_smooth_schedule(calibrate_omega(base, use="exact"))


def factorized_oracle(sched, ens):
    """thermal_average over factorized propagators 16 levels above auto."""
    auto = FockConfig.auto(ens.nbar, _max_branch_displacement(sched))
    fock = FockConfig(n_max=auto.n_max + 16)
    props = gate_propagator(sched, fock, rtol=1e-13)
    return thermal_average(sched, ens, fock=fock, props=props)


@pytest.mark.parametrize("nbar", [0.0, 3.5, 10.0])
def test_closed_form_matches_factorized_oracle_on_calibration_gate(calibration_schedule,
                                                                   nbar):
    # pins criterion 08's value at nbar = 10 (1-F = 6.7e-9) to the oracle
    ens = ThermalEnsemble.build(nbar)
    closed = thermal_average(calibration_schedule, ens)
    oracle = factorized_oracle(calibration_schedule, ens)
    assert max_outcome_difference(closed, oracle) <= 2.0 * ens.tail_mass + 1e-12
    assert abs(closed.fidelity - oracle.fidelity) < 1e-10
    assert 1.0 - closed.fidelity < 1e-8


def test_positive_detuning_gates_are_scored_against_their_own_handedness():
    # sign(theta_g) = sign(delta): flipping the sign of every detuning
    # conjugates the dynamics, so the +delta gate, scored against +pi/2,
    # mirrors the -delta gate scored against -pi/2
    schedules = {}
    for sign in (-1.0, 1.0):
        base = SmoothGateParams(delta_max=sign * TWO_PI * 400e3, delta_min=sign * TWO_PI * 21.7e3,
                                omega_g=TWO_PI * 6e3, tau_g=5e-6, tau_d=100e-6,
                                t_c=15.8e-6, j=3)
        schedules[sign] = build_smooth_schedule(calibrate_omega(base, use="exact"))
    ens = ThermalEnsemble.build(3.5)
    negative, positive = (thermal_average(schedules[s], ens) for s in (-1.0, 1.0))
    assert 1.0 - negative.fidelity < 1e-8
    assert positive.fidelity == pytest.approx(negative.fidelity, abs=1e-14)
    offsets = TWO_PI * np.array([-500.0, 500.0])
    scans = offset_scan(schedules[-1.0], offsets, ens), offset_scan(schedules[1.0], -offsets, ens)
    for own, mirrored in zip(*scans):
        for key in ("p_uu", "p_dd", "p_odd", "fidelity"):
            assert getattr(mirrored, key) == pytest.approx(getattr(own, key), abs=1e-14)
    # the mirror is not a symmetry of one scan: its two offsets leak differently
    assert scans[0][0].p_odd != pytest.approx(scans[0][1].p_odd, rel=1e-3)
    walsh = build_walsh_schedule(WalshGateParams(loops=2, delta_g=2 * TWO_PI * 5e3 * math.sqrt(2),
                                                 omega_g=TWO_PI * 5e3))
    assert 1.0 - thermal_average(walsh, ThermalEnsemble.build(0.0)).fidelity < 1e-14
    psi0 = CompositeState.from_spin_fock((1.0, 0.0, 0.0, 0.0), n=0, n_max=24)
    out = outcome_from_state(propagate(walsh, psi0), (1.0, 0.0, 0.0, 0.0), walsh)
    assert out.gate_angle == pytest.approx(math.pi / 2, abs=1e-9)
    assert 1.0 - out.fidelity < 1e-14


@pytest.mark.parametrize("offset_hz", [-2e3, 2e3])
def test_closed_form_matches_factorized_oracle_on_offset_walsh_gate(offset_hz):
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    sched = sched.with_detuning_offset(TWO_PI * offset_hz)
    ens = ThermalEnsemble.build(3.5)
    closed = thermal_average(sched, ens)
    assert closed.p_odd > 0.1
    assert max_outcome_difference(closed, factorized_oracle(sched, ens)) \
        <= 2.0 * ens.tail_mass + 1e-12


# ---------------------------------------------------------------------------
# scans


def smooth_scan_params():
    return SmoothGateParams(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 21.7e3,
                            omega_g=TWO_PI * 5925.625855570961, tau_g=5e-6,
                            tau_d=100e-6, t_c=15.8e-6, j=3)


def test_calibration_scan_finds_balanced_point():
    base = smooth_scan_params()
    grid = -TWO_PI * np.array([25e3, 23e3, 21e3, 19e3])
    outcomes, crossing = calibration_scan(base, grid, ThermalEnsemble.build(0.0))
    assert len(outcomes) == grid.size
    assert abs(crossing - (-TWO_PI * 21.7e3)) < 0.05 * TWO_PI * 21.7e3
    # balance flips the population ordering across the crossing
    first, last = outcomes[0], outcomes[-1]
    assert (first.p_uu - first.p_dd) * (last.p_uu - last.p_dd) < 0


def test_calibration_scan_errors():
    base = smooth_scan_params()
    with pytest.raises(GridError):
        calibration_scan(base, np.array([-TWO_PI * 20e3]), ThermalEnsemble.build(0.0))
    with pytest.raises(ParameterError):
        calibration_scan(base, TWO_PI * np.array([19e3, 21e3]),
                         ThermalEnsemble.build(0.0))
    with pytest.raises(ConvergenceError):
        grid = -TWO_PI * np.array([30e3, 28e3])
        calibration_scan(base, grid, ThermalEnsemble.build(0.0))


def test_offset_scan_baseline_and_symmetry():
    p = WalshGateParams.calibrated(2, TWO_PI * 5e3)
    sched = build_walsh_schedule(p)
    offsets = TWO_PI * np.array([-1e3, -0.25e3, 0.0, 0.25e3, 1e3])
    scan = offset_scan(sched, offsets, ThermalEnsemble.build(0.2))
    p_odd = [o.p_odd for o in scan]
    assert p_odd[2] < 1e-6
    # leakage is even in the offset to leading order, odd correction ~ offset
    assert p_odd[1] == pytest.approx(p_odd[-2], rel=0.1)
    asym_small = abs(p_odd[1] - p_odd[-2]) / p_odd[-2]
    asym_large = abs(p_odd[0] - p_odd[-1]) / p_odd[-1]
    assert asym_small < asym_large
    # sign-flip echo cancels the quadratic residual, leaving a quartic
    assert p_odd[-1] > 100 * p_odd[-2]
    assert all(o.fidelity <= 1.0 for o in scan)
    with pytest.raises(GridError):
        offset_scan(sched, np.zeros((2, 2)), ThermalEnsemble.build(0.0))


def test_offset_scan_cuts_each_segment_once_for_the_whole_scan(monkeypatch):
    cuts = []
    original = Segment.phase_edges

    def counted(seg, *args, **kwargs):
        cuts.append(seg)
        return original(seg, *args, **kwargs)

    monkeypatch.setattr(Segment, "phase_edges", counted)
    sched = build_smooth_schedule(smooth_scan_params())
    for n in (1, 3, 21):
        cuts.clear()
        offset_scan(sched, TWO_PI * np.linspace(-1e3, 1e3, n), ThermalEnsemble.build(3.5))
        assert 0 < len(cuts) <= 2 * len(sched.segments)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_offsets_are_parameter_errors(bad):
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    with pytest.raises(ParameterError):
        offset_scan(sched, [0.0, bad], ThermalEnsemble.build(0.0))
    with pytest.raises(ParameterError):
        sched.with_detuning_offset(bad)


def test_offset_scan_matches_per_offset_thermal_averages(calibration_schedule):
    offsets = TWO_PI * np.array([-2e3, -0.5e3, 0.0, 0.7e3, 2e3])
    ens = ThermalEnsemble.build(3.5)
    spin = (0.6, 0.0, 0.8j, 0.0)
    scan = offset_scan(calibration_schedule, offsets, ens, psi0_spin=spin)
    for k, eps in enumerate(offsets):
        own = thermal_average(calibration_schedule.with_detuning_offset(eps), ens, spin)
        for key in ("p_uu", "p_dd", "p_odd", "fidelity"):
            assert abs(getattr(scan[k], key) - getattr(own, key)) < 1e-14


def test_thermal_routes_build_no_fock_space(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("a thermal outcome stepped a Fock-space propagator")

    monkeypatch.setattr(quantum, "gate_propagator", forbidden)
    monkeypatch.setattr(FockConfig, "auto", forbidden)
    walsh = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    hot = ThermalEnsemble.build(10.0)
    assert thermal_average(walsh, hot).fidelity > 0.999
    grid = -TWO_PI * np.array([25e3, 23e3, 21e3, 19e3])
    calibration_scan(smooth_scan_params(), grid, hot)
    offset_scan(walsh, TWO_PI * np.array([-1e3, 0.0, 1e3]), hot)
    config = tmp_path / "sweep.ini"
    config.write_text("[scenario]\nname = thermal-sweep\noutput = th.csv\n"
                      "[schedule]\ntype = walsh\n[walsh]\nloops = 2\nomega_hz = 5e3\n"
                      "[sweep]\nnbars = 0,10\n")
    assert cli.main(["run", str(config), "--output-dir", str(tmp_path), "--quiet"]) == 0
