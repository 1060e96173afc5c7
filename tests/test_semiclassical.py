"""Branch-trajectory and perturbative-error tests.

Closed-form oracles: for constant drive the displacement is
gamma_s = -(s*Omega/2/delta)*(exp(i*delta*t)-1) and the branch phase is
(s*Omega/2)^2*(t - sin(delta*t)/delta)/delta; both are evaluated directly
in the tests and compared against the integrators.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from iongate import semiclassical
from iongate.errors import ConvergenceError, GridError, ParameterError
from iongate.filterfn import filter_function_numeric
from iongate.quantum import FockConfig, gate_propagator
from iongate.schedule import (
    PulseSchedule,
    Segment,
    SmoothGateParams,
    WalshGateParams,
    build_smooth_schedule,
    build_walsh_schedule,
)
from iongate.semiclassical import (
    branch_endpoints,
    calibrate_delta_min,
    calibrate_omega,
    gate_angle_exact,
    perturbative_infidelity,
    propagate_displacement,
)

TWO_PI = 2 * np.pi


def reference_params(**overrides) -> SmoothGateParams:
    kw = dict(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 21.7e3,
              omega_g=TWO_PI * 6e3, tau_g=5e-6, tau_d=100e-6, t_c=15.8e-6, j=3)
    kw.update(overrides)
    return SmoothGateParams(**kw)


def constant_schedule(omega=TWO_PI * 5e3, delta=-TWO_PI * 20e3, loops=1):
    return build_walsh_schedule(WalshGateParams(loops=loops, delta_g=delta, omega_g=omega))


# ---------------------------------------------------------------------------
# displacement propagation


def test_zero_drive_gives_zero_trajectory():
    sched = PulseSchedule([Segment(1e-4, lambda u: np.zeros_like(u),
                                   lambda u: np.full_like(u, -1e5))])
    traj = propagate_displacement(sched, branch_eigenvalue=2.0)
    assert np.all(traj.gamma == 0)
    assert np.all(traj.theta == 0)
    assert traj.eta_end == pytest.approx(-1e5 * 1e-4)


def test_loop_closure_constant_drive():
    sched = constant_schedule()
    traj = propagate_displacement(sched, branch_eigenvalue=2.0)
    assert abs(traj.gamma[0]) == 0.0
    assert abs(traj.gamma_end) < 1e-10
    assert traj.eta[0] == 0.0 and traj.theta[0] == 0.0


def test_half_loop_displacement_magnitude():
    om, de = TWO_PI * 5e3, -TWO_PI * 20e3
    sched = constant_schedule(om, de)
    t_half = np.pi / abs(de)
    traj = propagate_displacement(sched, branch_eigenvalue=1.0,
                                  t_eval=np.linspace(0, sched.duration, 4001))
    i = np.argmin(np.abs(traj.t - t_half))
    assert traj.t[i] == pytest.approx(t_half, abs=1e-9)
    assert abs(traj.gamma[i]) == pytest.approx(om / abs(de), rel=1e-6)


def test_constant_drive_matches_closed_form_everywhere():
    om, de, s = TWO_PI * 5e3, -TWO_PI * 20e3, 2.0
    sched = constant_schedule(om, de)
    traj = propagate_displacement(sched, branch_eigenvalue=s)
    gamma_ref = -(s * om / (2 * de)) * (np.exp(1j * de * traj.t) - 1.0)
    theta_ref = (s * om / 2) ** 2 * (traj.t - np.sin(de * traj.t) / de) / de
    assert np.allclose(traj.gamma, gamma_ref, atol=1e-12)
    assert np.allclose(traj.theta, theta_ref, atol=1e-12)
    assert np.allclose(traj.eta, de * traj.t, atol=1e-9)


def test_walsh_flip_reverses_drive():
    # after the sign flip of a two-loop sequence the displacement retraces
    # the first loop with opposite sense; closure still holds at the end
    p = WalshGateParams.calibrated(loops=2, omega_g=TWO_PI * 5e3)
    traj = propagate_displacement(build_walsh_schedule(p), branch_eigenvalue=2.0)
    assert abs(traj.gamma_end) < 1e-10
    quarter = np.argmin(np.abs(traj.t - p.loop_time / 2))
    threequarter = np.argmin(np.abs(traj.t - 3 * p.loop_time / 2))
    assert abs(traj.gamma[quarter] + traj.gamma[threequarter]) < 1e-9


def solve_ivp_oracle(sched, s):
    """Reference (gamma, eta, theta) at the schedule end from an RK solve."""
    y = np.zeros(4)
    for seg in sched.segments:
        def rhs(u, y, seg=seg):
            om = seg.sign * float(seg.omega(np.array([u]))[0])
            de = float(seg.delta(np.array([u]))[0])
            dg = -0.5j * s * om * np.exp(1j * y[2])
            return [dg.real, dg.imag, de, y[0] * dg.imag - y[1] * dg.real]

        max_step = TWO_PI / (16.0 * seg.max_abs_delta())
        sol = solve_ivp(rhs, (0.0, seg.duration), y, method="DOP853", rtol=1e-13,
                        atol=1e-16, max_step=max_step)
        assert sol.success
        y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2], y[3]


@pytest.fixture(scope="module")
def calibration_gate():
    return calibrate_omega(reference_params(), use="exact")


def kinked_ramp_schedule(p):
    """Gate whose amplitude ramps run inside its detuning ramps, each in one segment.

    Omega'' jumps at tau_g inside the first segment and at tau_d - tau_g
    inside the last, kinks that only panel bisection resolves.
    """
    def omega_in(u):
        return np.where(u < p.tau_g, p.omega_g * np.sin(np.pi * u / (2 * p.tau_g)) ** 2,
                        p.omega_g)

    ramp = build_smooth_schedule(p).segments[1].delta
    segs = [Segment(p.tau_d, omega_in, ramp, label="ramp-in"),
            Segment(p.t_c, lambda u: np.full_like(u, p.omega_g), lambda u: np.full_like(u, p.delta_min),
                    label="hold"),
            Segment(p.tau_d, lambda u: omega_in(p.tau_d - u),
                    lambda u: ramp(p.tau_d - u), label="ramp-out")]
    return PulseSchedule(segs)


@pytest.mark.parametrize("kinked", [False, True])
def test_panel_kernel_matches_ode_oracle(calibration_gate, kinked):
    if kinked:
        sched = kinked_ramp_schedule(calibration_gate)
    else:
        sched = build_smooth_schedule(calibration_gate)
    traj = propagate_displacement(sched, branch_eigenvalue=2.0)
    gamma, eta, theta = solve_ivp_oracle(sched, 2.0)
    assert abs(traj.gamma_end - gamma) < 1e-11
    assert traj.theta_end == pytest.approx(theta, rel=1e-12)
    assert traj.eta_end == pytest.approx(eta, rel=1e-12)


@pytest.mark.parametrize("deep", [False, True])
def test_panel_kernel_refinement(calibration_gate, deep):
    # the deep 1 kHz ramp magnifies any round-off in delta near its start by
    # |delta_max/delta_min|^4; bisection alone must resolve it
    if deep:
        sched = build_smooth_schedule(reference_params(
            omega_g=TWO_PI * 5e3, delta_min=-TWO_PI * 1e3, tau_d=95e-6, t_c=0.0, j=4))
    else:
        sched = kinked_ramp_schedule(calibration_gate)
    coarse = propagate_displacement(sched, branch_eigenvalue=2.0, rtol=1e-11)
    fine = propagate_displacement(sched, branch_eigenvalue=2.0, rtol=1e-13)
    assert np.array_equal(coarse.t, fine.t)
    assert np.max(np.abs(coarse.gamma - fine.gamma)) < 1e-11
    assert np.max(np.abs(coarse.theta - fine.theta)) < 1e-11 * abs(fine.theta_end)
    assert np.max(np.abs(coarse.eta - fine.eta)) < 1e-11 * abs(fine.eta_end)


@pytest.mark.parametrize("omega", [
    lambda u: np.where(u < 3e-5, 0.0, 1e4),  # a jump never resolves under bisection
    lambda u: 1e4 * (1.0 + 1e-3 * np.sin(1e12 * u)),  # would need ~1e8 panels
], ids=["jump", "fast-oscillation"])
def test_unresolved_drive_raises_convergence_error(omega):
    seg = Segment(1e-4, omega, lambda u: np.full_like(u, -1e5))
    with pytest.raises(ConvergenceError):
        propagate_displacement(PulseSchedule([seg]), branch_eigenvalue=2.0)


def test_solver_tolerance_keywords(calibration_gate):
    # the keyword forms the converged benchmark references pass through
    kw = dict(rtol=1e-13, atol=1e-16)
    solved = calibrate_omega(reference_params(), use="exact", **kw)
    assert solved.omega_g == pytest.approx(calibration_gate.omega_g, rel=1e-10)
    sched = build_smooth_schedule(solved)
    traj = propagate_displacement(sched, branch_eigenvalue=2.0, rtol=kw["rtol"])
    assert traj.theta_end == pytest.approx(-np.pi / 2, rel=1e-12)
    p = reference_params(omega_g=TWO_PI * 5e3, tau_d=95e-6, t_c=0.0, j=4)
    by_delta = calibrate_delta_min(p, use="exact", **kw)
    assert gate_angle_exact(build_smooth_schedule(by_delta), **kw) == pytest.approx(
        -np.pi / 2, rel=1e-11)
    om = np.geomspace(TWO_PI * 20, TWO_PI * 1e5, 6)
    ff = filter_function_numeric(sched, nbar=10.0, omega=om, **kw)
    assert ff.total == pytest.approx(filter_function_numeric(sched, nbar=10.0, omega=om).total,
                                     rel=1e-8)
    fock = FockConfig(n_max=12)
    blocks = gate_propagator(sched, fock, rtol=kw["rtol"]).blocks
    assert np.allclose(blocks, gate_propagator(sched, fock).blocks, atol=1e-10)


def test_branch_symmetry_and_null_branch():
    sched = build_smooth_schedule(reference_params())
    t = np.linspace(0, sched.duration, 6001)
    plus = propagate_displacement(sched, 2.0, t_eval=t)
    minus = propagate_displacement(sched, -2.0, t_eval=t)
    null = propagate_displacement(sched, 0.0, t_eval=t)
    assert np.allclose(plus.gamma, -minus.gamma, atol=1e-12)
    assert np.allclose(plus.theta, minus.theta, atol=1e-12)
    assert np.all(null.gamma == 0) and np.all(null.theta == 0)
    assert null.eta_end == pytest.approx(plus.eta_end, rel=1e-12)


@st.composite
def gate_schedules(draw):
    """Smooth or Walsh gates with random shape and a static detuning offset."""
    khz = lambda lo, hi: TWO_PI * 1e3 * draw(st.floats(lo, hi))
    if draw(st.booleans()):
        delta_max = khz(100.0, 800.0) * draw(st.sampled_from([-1.0, 1.0]))
        sched = build_smooth_schedule(SmoothGateParams(
            delta_max=delta_max, delta_min=delta_max * draw(st.floats(0.02, 0.5)),
            omega_g=khz(1.0, 10.0), tau_g=draw(st.floats(1e-6, 10e-6)),
            tau_d=draw(st.floats(10e-6, 120e-6)), t_c=draw(st.floats(0.0, 20e-6)),
            j=draw(st.integers(1, 5))))
    else:
        sched = build_walsh_schedule(WalshGateParams.calibrated(
            draw(st.sampled_from([1, 2, 4])), khz(1.0, 20.0)))
    return sched.with_detuning_offset(khz(-3.0, 3.0))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(gate_schedules())
def test_minus_two_branch_is_negated_plus_two_branch(sched):
    # the closed-form thermal average takes the -2 branch from the +2 one
    plus = propagate_displacement(sched, 2.0)
    minus = propagate_displacement(sched, -2.0)
    assert np.array_equal(minus.gamma, -plus.gamma)
    assert np.array_equal(minus.theta, plus.theta)
    assert np.array_equal(minus.eta, plus.eta)


@pytest.mark.parametrize("gate", ["walsh", "smooth"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_batched_endpoints_match_per_offset_propagation(calibration_gate, gate, data):
    # offsets up to 30 kHz flip the sign of delta + eps on the constant Walsh
    # loops (delta = -14.1 kHz) and on the smooth gate's -21.7 kHz hold;
    # sampling -delta itself zeroes it there
    if gate == "walsh":
        sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    else:
        sched = build_smooth_schedule(calibration_gate)
    zero = -float(sched.segments[-1 if gate == "walsh" else 2].delta(0.0))
    offset = st.one_of(st.just(zero), st.floats(-TWO_PI * 30e3, TWO_PI * 30e3))
    offsets = np.array(data.draw(st.lists(offset, min_size=1, max_size=5)))
    gamma, theta, eta = branch_endpoints(sched, offsets)
    assert gamma.shape == theta.shape == eta.shape == offsets.shape
    for k, eps in enumerate(offsets):
        own = propagate_displacement(sched.with_detuning_offset(eps), 2.0)
        # the two panel sets differ, and eta is only resolved to its float
        # spacing, 2.2e-16*|eta| (2.2e-14 rad at |eta| = 100 rad)
        floor = 1e-14 + 8.0 * np.finfo(float).eps * np.max(np.abs(own.eta))
        assert abs(gamma[k] - own.gamma_end) <= floor * np.max(np.abs(own.gamma))
        assert abs(theta[k] - own.theta_end) <= floor * max(1.0, np.max(np.abs(own.theta)))
        assert eta[k] == pytest.approx(own.eta_end, rel=1e-14, abs=1e-14)


def test_single_offset_endpoints_equal_the_trajectory_endpoints(calibration_gate):
    sched = build_smooth_schedule(calibration_gate)
    for eps in (0.0, TWO_PI * 1.5e3):
        own = propagate_displacement(sched.with_detuning_offset(eps), 2.0)
        gamma, theta, eta = branch_endpoints(sched, [eps])
        assert (gamma[0], theta[0], eta[0]) == (own.gamma_end, own.theta_end, own.eta_end)


def test_offset_family_matches_the_per_segment_closed_form():
    # on a constant segment of duration T, with d = delta_g + eps,
    # c = -i*(s/2)*W*Omega*exp(i*eta0) and E = (exp(i*d*T) - 1)/(i*d),
    # gamma gains c*E and theta gains Im(conj(gamma0)*c*E + i*|c|^2*(T - E)/d);
    # the gate and offsets are the benchmark's Walsh offset scan
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    offsets = TWO_PI * np.linspace(-2e3, 2e3, 201)
    gamma, theta, eta = branch_endpoints(sched, offsets)
    g, th, et = np.zeros(offsets.size, dtype=complex), np.zeros(offsets.size), 0.0 * offsets
    for seg in sched.segments:
        d, T = seg.delta(0.0) + offsets, seg.duration
        c = -1j * seg.sign * seg.omega(0.0) * np.exp(1j * et)
        E = (np.exp(1j * d * T) - 1.0) / (1j * d)
        th = th + np.imag(np.conj(g) * c * E + 1j * np.abs(c) ** 2 * (T - E) / d)
        g, et = g + c * E, et + d * T
    assert np.max(np.abs(gamma - g)) < 1e-13
    assert np.max(np.abs(theta - th)) < 1e-13
    assert np.allclose(eta, et, rtol=1e-14, atol=0)


def test_offset_blocks_do_not_change_the_endpoints(monkeypatch):
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    offsets = TWO_PI * np.linspace(-3e3, 3e3, 11)
    whole = branch_endpoints(sched, offsets)
    monkeypatch.setattr(semiclassical, "OFFSET_BLOCK", 4)
    for a, b in zip(whole, branch_endpoints(sched, offsets)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("offsets", [[], [[0.0]], [0.0, math.nan], [math.inf]],
                         ids=["empty", "2-d", "nan", "inf"])
def test_branch_endpoints_reject_bad_offsets(offsets):
    with pytest.raises(ParameterError):
        branch_endpoints(constant_schedule(), offsets)


def test_initial_cut_beyond_max_panels_raises_before_the_nodes():
    # 2 pi x 1 GHz on a 2-loop 5 kHz Walsh gate cuts ~9e5 one-radian panels
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))

    def sampled(fn):
        def checked(u):
            assert np.size(u) <= 2049, "panel nodes were evaluated"
            return fn(u)
        return checked

    sched = PulseSchedule([dataclasses.replace(seg, omega=sampled(seg.omega))
                           for seg in sched.segments])
    with pytest.raises(ConvergenceError, match="exceed"):
        branch_endpoints(sched, [TWO_PI * 1e9])


def test_aese_displacement_shrinks_with_slower_ramps():
    # scale every ramp timescale together (fixed detuning endpoints); the
    # diabatic endpoint residual must fall off.  Individual tau_d values at
    # fixed tau_g are not monotone because the fixed amplitude-ramp residue
    # interferes with the shrinking detuning-ramp residue.
    mags = []
    for f in (0.5, 1.0, 2.0, 4.0):
        sched = build_smooth_schedule(reference_params(tau_g=5e-6 * f, tau_d=100e-6 * f, t_c=0.0))
        mags.append(abs(propagate_displacement(sched, 2.0).gamma_end))
    assert mags[0] > mags[1] > mags[2] > mags[3]


def test_grid_validation():
    sched = constant_schedule()
    with pytest.raises(GridError):
        propagate_displacement(sched, 2.0, t_eval=np.linspace(0, sched.duration, 8))
    with pytest.raises(GridError):
        propagate_displacement(sched, 2.0, t_eval=np.linspace(0, 2 * sched.duration, 4001))


# ---------------------------------------------------------------------------
# gate angle


def test_gate_angle_constant_drive():
    om, de = TWO_PI * 5e3, -TWO_PI * 20e3
    sched = constant_schedule(om, de)
    got = gate_angle_exact(sched)
    # full loop: theta_g = 2*pi*K*Omega^2/delta^2 with the sign of delta
    expected = om ** 2 * sched.duration / de
    assert got == pytest.approx(expected, rel=1e-10)


def test_calibrated_walsh_angle_is_quarter_turn():
    for loops in (1, 2, 4):
        p = WalshGateParams.calibrated(loops=loops, omega_g=TWO_PI * 5e3)
        theta = gate_angle_exact(build_walsh_schedule(p))
        assert theta == pytest.approx(-np.pi / 2, rel=1e-10)


def test_reference_omega_calibration():
    # solving the exact angle for Omega_g at the reference smooth point
    # must land close to 2pi*6 kHz
    exact = calibrate_omega(reference_params(), use="exact")
    assert abs(exact.omega_g - TWO_PI * 6e3) < TWO_PI * 0.9e3
    sched = build_smooth_schedule(exact)
    assert abs(gate_angle_exact(sched)) == pytest.approx(np.pi / 2, rel=1e-6)


def test_delta_min_calibration_roundtrip():
    p = reference_params(omega_g=TWO_PI * 5e3, tau_d=95e-6, t_c=0.0)
    solved = calibrate_delta_min(p, use="exact")
    sched = build_smooth_schedule(solved)
    assert abs(gate_angle_exact(sched)) == pytest.approx(np.pi / 2, abs=1e-10)
    assert abs(solved.delta_min) < abs(p.delta_min) * 0.9  # smaller Omega needs closer approach
    with pytest.raises(ConvergenceError, match="not bracketed"):
        calibrate_delta_min(reference_params(omega_g=TWO_PI * 0.1e3), use="exact")


def counted_kernel(monkeypatch):
    """The schedules that semiclassical.gate_angle_exact is called on from now on."""
    calls = []
    kernel = semiclassical.gate_angle_exact

    def counting(schedule, **kw):
        calls.append(schedule)
        return kernel(schedule, **kw)

    monkeypatch.setattr(semiclassical, "gate_angle_exact", counting)
    return calls


@pytest.mark.parametrize("params", [
    reference_params(omega_g=TWO_PI * 5.926e3),
    reference_params(delta_min=-TWO_PI * 14161.0, omega_g=TWO_PI * 5e3, tau_d=95e-6, t_c=0.0,
                     j=4),
    reference_params(delta_max=TWO_PI * 400e3, delta_min=TWO_PI * 20e3, t_c=0.0, j=2),
], ids=["calibration-shape", "matched-200us-j4", "positive-j2"])
def test_delta_min_solver_matches_brentq(monkeypatch, params):
    # the Illinois solve in 1/|delta_min| lands on brentq's root over the same
    # bracket, in at most 12 kernel calls with the bracket ends
    from scipy.optimize import brentq

    def f(absdm):
        p = dataclasses.replace(params, delta_min=params.sign * absdm)
        return abs(gate_angle_exact(build_smooth_schedule(p))) - np.pi / 2

    root = brentq(f, TWO_PI * 1e3, 0.9 * abs(params.delta_max), rtol=1e-12)
    calls = counted_kernel(monkeypatch)
    solved = calibrate_delta_min(params, use="exact")
    assert solved.delta_min == pytest.approx(params.sign * root, rel=1e-12, abs=0)
    assert len(calls) <= 12


@pytest.mark.parametrize("delta_max", [-TWO_PI * 900, -TWO_PI * 1.05e3],
                         ids=["-900Hz", "-1.05kHz"])
def test_empty_delta_min_search_raises_before_any_kernel_call(monkeypatch, delta_max):
    # 0.9*|delta_max| at or below 2*pi*1 kHz leaves an empty or reversed bracket
    calls = counted_kernel(monkeypatch)
    p = reference_params(delta_max=delta_max, delta_min=-TWO_PI * 500)
    with pytest.raises(ParameterError, match=r"2\*pi\*1 kHz to 0\.9\*\|delta_max\|"):
        calibrate_delta_min(p, use="exact")
    assert calls == []


def test_bracketed_root_stops_on_a_bad_bracket_or_no_convergence():
    with pytest.raises(ConvergenceError, match="not bracketed"):
        semiclassical._bracketed_root(lambda x: x * x + 1.0, -1.0, 2.0)
    # a kernel that fails inside the bracket never closes it
    with pytest.raises(ConvergenceError, match="not converged"):
        semiclassical._bracketed_root(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                                      0.0, 1.0)
    assert semiclassical._bracketed_root(lambda x: x ** 3 - 2.0, 0.0, 2.0) == pytest.approx(
        2.0 ** (1 / 3), rel=1e-12)


@pytest.mark.parametrize("calibrate", [calibrate_omega, calibrate_delta_min])
def test_calibration_rejects_unknown_angle(calibrate):
    # the exact kernel is the only gate-angle route
    for use in ("adiabtic", "adiabatic"):
        with pytest.raises(ParameterError):
            calibrate(reference_params(), use=use)


# ---------------------------------------------------------------------------
# spin variances of the |uu> input


def brute_force_variances(psi, phi):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sp = math.cos(phi) * sx + math.sin(phi) * sy
    big = np.kron(sp, np.eye(2)) + np.kron(np.eye(2), sp)
    m1 = (psi.conj() @ big @ psi).real
    m2 = (psi.conj() @ big @ big @ psi).real
    m4 = (psi.conj() @ big @ big @ big @ big @ psi).real
    return m2 - m1 ** 2, m4 - m2 ** 2


def test_uu_variances_match_brute_force():
    # the moments the error formulas fold in are those of |uu> at every phi,
    # up to the round-off of |exp(i*phi)|^2 in the brute-force products
    psi = np.array([1, 0, 0, 0], dtype=complex)
    for phi in (0.0, 0.3, np.pi / 4):
        assert brute_force_variances(psi, phi) == pytest.approx(semiclassical._UU_VARIANCES,
                                                                rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# perturbative infidelity


def test_perturbative_zero_eps_and_null_branch():
    out = perturbative_infidelity(constant_schedule(), 0.0, nbar=5.0)
    assert out.total == 0.0
    # without drive every branch is null (gamma = 0), so no eps acts on it
    undriven = PulseSchedule([Segment(1e-4, lambda u: np.zeros_like(u),
                                      lambda u: np.full_like(u, -1e5))])
    out0 = perturbative_infidelity(undriven, 123.0, nbar=5.0)
    assert out0.total == 0.0 and out0.residual_displacement == 0


def test_perturbative_constant_eps_single_loop_oracle():
    # oracle: for constant eps over one closed loop,
    # alpha_t = eps*Omega*t_K/(2*delta) and dtheta = eps*Omega^2*t_K/delta^2
    om, de, eps = TWO_PI * 5e3, -TWO_PI * 20e3, TWO_PI * 150.0
    sched = constant_schedule(om, de, loops=1)
    t_k = sched.duration
    out = perturbative_infidelity(sched, eps, nbar=2.0)
    alpha_ref = eps * om * t_k / (2 * de)
    dtheta_ref = eps * om ** 2 * t_k / de ** 2
    assert out.residual_displacement.real == pytest.approx(alpha_ref, rel=1e-12)
    assert abs(out.residual_displacement.imag) < abs(alpha_ref) * 1e-12
    assert out.gate_angle_error == pytest.approx(dtheta_ref, rel=1e-12)
    # |uu> weights: Var S = 2, Var S^2 = 4
    expected_total = (2 * 2.0 + 1) * abs(alpha_ref) ** 2 * 2.0 + dtheta_ref ** 2 / 4 * 4.0
    assert out.total == pytest.approx(expected_total, rel=1e-12)


def test_perturbative_eps_forms_agree():
    sched = constant_schedule()
    eps = TWO_PI * 150.0
    as_constant = perturbative_infidelity(sched, eps)
    assert perturbative_infidelity(sched, lambda t: np.full_like(t, eps)) == as_constant
    assert perturbative_infidelity(sched, lambda t: eps) == as_constant
    # an array of samples is no longer a form of eps
    with pytest.raises(ValueError):
        perturbative_infidelity(sched, np.ones(7))


@pytest.mark.parametrize("w", [1e6, 1e7])
def test_perturbative_unresolved_eps_raises_convergence_error(w):
    # the 4-loop 5 kHz Walsh gate's panels resolve cos(w*t) up to w = 5e5 rad/s
    sched = build_walsh_schedule(WalshGateParams.calibrated(4, TWO_PI * 5e3))
    perturbative_infidelity(sched, lambda t: np.cos(5e5 * t))
    with pytest.raises(ConvergenceError, match="eps not resolved"):
        perturbative_infidelity(sched, lambda t: np.cos(w * t))
