"""Schedule construction and evaluation tests.

Expected values marked as oracle results were computed from the closed-form
expressions independently of the schedule machinery and frozen here.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongate.errors import DomainError, ParameterError
from iongate.filterfn import (PowerLawPsd, SampledPsd, filter_function_numeric,
                              filter_function_walsh_analytic)
from iongate.quantum import FockConfig
from iongate.schedule import (
    PulseSchedule,
    Segment,
    SmoothGateParams,
    WalshGateParams,
    build_smooth_schedule,
    build_walsh_schedule,
)
from iongate.semiclassical import perturbative_infidelity
from iongate.slerb import DecayFit

TWO_PI = 2 * np.pi


def reference_params(**overrides) -> SmoothGateParams:
    """Smooth-gate working point used throughout the experimental sections."""
    kw = dict(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 21.7e3,
              omega_g=TWO_PI * 6e3, tau_g=5e-6, tau_d=100e-6, t_c=15.8e-6, j=3)
    kw.update(overrides)
    return SmoothGateParams(**kw)


def eval_detuning_ramp(p: SmoothGateParams, t):
    """Detuning of the down ramp as built: the det-down segment of the gate."""
    return build_smooth_schedule(p).segments[1].delta(t)


# ---------------------------------------------------------------------------
# detuning ramp


def test_detuning_ramp_boundary_exactness():
    p = reference_params()
    assert eval_detuning_ramp(p, 0.0) == pytest.approx(p.delta_max, abs=1e-6)
    assert eval_detuning_ramp(p, p.tau_d) == pytest.approx(p.delta_min, abs=1e-6)


def test_detuning_ramp_midpoint_frozen_value():
    # oracle: g(tau_d/2) = tau_d/4, so |delta|^(-j) sits at the mean of the
    # endpoint values; ((|dmin|^-3 + |dmax|^-3)/2)^(-1/3) = 171774.94676577116
    p = reference_params()
    val = eval_detuning_ramp(p, p.tau_d / 2)
    assert val == pytest.approx(-171774.94676577116, rel=1e-12)
    assert abs(val) / TWO_PI == pytest.approx(27.3e3, rel=0.01)


def test_detuning_ramp_monotone_random_params():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        absmax = TWO_PI * rng.uniform(50e3, 2e6)
        absmin = absmax * rng.uniform(0.01, 0.9)
        sign = rng.choice([-1.0, 1.0])
        p = SmoothGateParams(delta_max=sign * absmax, delta_min=sign * absmin,
                             omega_g=TWO_PI * 5e3, tau_g=5e-6,
                             tau_d=rng.uniform(20e-6, 300e-6), t_c=0.0,
                             j=int(rng.integers(1, 6)))
        t = np.linspace(0, p.tau_d, 400)
        mags = np.abs(eval_detuning_ramp(p, t))
        assert np.all(np.diff(mags) <= 1e-6 * absmax)
        assert np.all(mags <= absmax * (1 + 1e-12))
        assert np.all(mags >= absmin * (1 - 1e-12))


def test_detuning_ramp_matches_40_digit_reference():
    # oracle: g = (tau_d/4pi)(x - sin x) summed as a Taylor series in
    # 40-digit decimal arithmetic; the deep 1 kHz, j = 4 ramp magnifies any
    # cancellation in g by |delta_max/delta_min|^4 near the ramp start
    p = reference_params(delta_min=-TWO_PI * 1e3, tau_d=95e-6, t_c=0.0, j=4)
    t = np.concatenate((np.geomspace(1e-12, p.tau_d, 200), np.linspace(0, p.tau_d, 101)[1:]))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        tau_d, j = Decimal(p.tau_d), Decimal(p.j)
        b = Decimal(abs(p.delta_max)) ** -j
        c = 2 / tau_d * (Decimal(abs(p.delta_min)) ** -j - b)
        expected = []
        for v in t:
            x = 2 * pi * Decimal(v) / tau_d
            term, total, k = x ** 3 / 6, Decimal(0), 3
            while abs(term) > Decimal("1e-45") * abs(total + term):
                total += term
                term *= -x * x / ((k + 1) * (k + 2))
                k += 2
            expected.append(float(-((b + c * tau_d / (4 * pi) * total) ** (-1 / j))))
    expected = np.array(expected)
    got = eval_detuning_ramp(p, t)
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-15


def test_detuning_ramp_flat_boundaries():
    # finite-difference slope at the ends must shrink as the step shrinks
    p = reference_params()
    slopes = []
    for h in (1e-9, 1e-10):
        s0 = (eval_detuning_ramp(p, h) - eval_detuning_ramp(p, 0.0)) / h
        s1 = (eval_detuning_ramp(p, p.tau_d) - eval_detuning_ramp(p, p.tau_d - h)) / h
        slopes.append(max(abs(s0), abs(s1)))
    assert slopes[1] < slopes[0]
    assert slopes[1] < 1e-3 * abs(p.delta_max) / p.tau_d


NAN, INF = float("nan"), float("inf")
WALSH = WalshGateParams.calibrated(1, TWO_PI * 20e3)
OMEGA = TWO_PI * np.array([1e3, 10e3])


@pytest.mark.parametrize("make", [
    lambda: reference_params(t_c=NAN),
    lambda: reference_params(t_c=INF),
    lambda: reference_params(omega_g=NAN),
    lambda: reference_params(delta_max=-INF),
    lambda: reference_params(j=NAN),
    lambda: reference_params(j=INF),
    lambda: WalshGateParams(1, WALSH.delta_g, NAN),
    lambda: WalshGateParams(1, WALSH.delta_g, INF),
    lambda: WalshGateParams(1, NAN, WALSH.omega_g),
    lambda: filter_function_numeric(build_walsh_schedule(WALSH), NAN, omega=OMEGA),
    lambda: filter_function_walsh_analytic(WALSH, INF, omega=OMEGA),
    lambda: perturbative_infidelity(build_walsh_schedule(WALSH), TWO_PI * 100, nbar=NAN),
    lambda: perturbative_infidelity(build_walsh_schedule(WALSH), NAN),
    lambda: FockConfig.auto(NAN),
    lambda: FockConfig.auto(INF),
    lambda: FockConfig.auto(1.0, max_displacement=NAN),
    lambda: PowerLawPsd(amplitude=NAN, exponent=1.0, omega_min=1.0, omega_max=2.0),
    lambda: PowerLawPsd(amplitude=1.0, exponent=NAN, omega_min=1.0, omega_max=2.0),
    lambda: PowerLawPsd(amplitude=1.0, exponent=0.0, omega_min=0.0, omega_max=INF),
    lambda: SampledPsd(omega=np.array([1.0, 2.0]), values=np.array([1.0, NAN])),
    lambda: SampledPsd(omega=np.array([1.0, NAN]), values=np.array([1.0, 1.0])),
    lambda: DecayFit(eps_rb=NAN, eps_leak=0.0),
    lambda: DecayFit(eps_rb=INF, eps_leak=0.0),
    lambda: DecayFit(eps_rb=0.0, eps_leak=NAN),
    lambda: DecayFit(eps_rb=0.0, eps_leak=INF),
], ids=["t_c-nan", "t_c-inf", "smooth-omega_g-nan", "delta_max-inf", "j-nan", "j-inf",
        "walsh-omega_g-nan", "walsh-omega_g-inf", "walsh-delta_g-nan", "numeric-nbar-nan",
        "analytic-nbar-inf", "perturbative-nbar-nan", "perturbative-eps-nan", "auto-nan",
        "auto-inf", "auto-displacement-nan", "power-amplitude-nan", "power-exponent-nan",
        "power-omega_max-inf", "sampled-value-nan", "sampled-omega-nan", "fit-eps_rb-nan",
        "fit-eps_rb-inf", "fit-eps_leak-nan", "fit-eps_leak-inf"])
def test_non_finite_parameters_are_parameter_errors(make):
    # NaN passes every `x < 0` check, so each float must be checked finite
    with pytest.raises(ParameterError):
        make()


def test_detuning_ramp_domain_and_parameter_errors():
    s = build_smooth_schedule(reference_params())
    with pytest.raises(DomainError):
        s.delta(-1e-6)
    with pytest.raises(DomainError):
        s.delta(s.duration + 1e-6)
    with pytest.raises(ParameterError):
        reference_params(delta_min=TWO_PI * 21.7e3)  # sign mismatch
    with pytest.raises(ParameterError):
        reference_params(delta_min=-TWO_PI * 500e3)  # |min| >= |max|
    with pytest.raises(ParameterError):
        reference_params(tau_d=0.0)
    with pytest.raises(ParameterError):
        reference_params(j=0)


# ---------------------------------------------------------------------------
# amplitude ramp


def test_amplitude_ramp_values():
    # tau_g = 5 us: the up ramp opens the gate, the down ramp closes it
    s = build_smooth_schedule(reference_params())
    og, end = TWO_PI * 6e3, s.duration
    assert s.omega(0.0) == 0.0
    assert s.omega(5e-6) == pytest.approx(og)
    assert s.omega(2.5e-6) == pytest.approx(og / 2)
    assert s.omega(end - 5e-6) == pytest.approx(og)
    assert s.omega(end - 2.5e-6) == pytest.approx(og / 2)
    assert s.omega(end) == pytest.approx(0.0, abs=1e-9 * og)
    with pytest.raises(DomainError):
        s.omega(end + 1e-6)


# ---------------------------------------------------------------------------
# walsh functions


def test_walsh_function_values():
    signs = {loops: WalshGateParams(loops, -TWO_PI * 20e3, TWO_PI * 5e3).signs
             for loops in (1, 2, 4, 8)}
    assert signs == {1: (1,), 2: (1, -1), 4: (1, -1, -1, 1), 8: (1, -1, -1, 1, -1, 1, 1, -1)}


def test_walsh_sequence_flip_count():
    # number of drive-phase flips = sign changes in the sequence
    for loops, flips in [(1, 0), (2, 1), (4, 2), (8, 5)]:
        seq = np.array(WalshGateParams(loops, -TWO_PI * 20e3, TWO_PI * 5e3).signs)
        assert int(np.sum(seq[1:] != seq[:-1])) == flips


# ---------------------------------------------------------------------------
# schedule builders


def test_smooth_schedule_duration_reference_point():
    s = build_smooth_schedule(reference_params())
    assert s.duration == pytest.approx(225.8e-6, rel=1e-12)
    assert len(s.segments) == 5


def test_smooth_schedule_zero_hold():
    s = build_smooth_schedule(reference_params(t_c=0.0))
    assert s.duration == pytest.approx(210e-6)
    assert len(s.segments) == 4  # degenerate hold omitted


def test_smooth_schedule_continuity_and_zero_ends():
    s = build_smooth_schedule(reference_params())
    t = np.linspace(0, s.duration, 20001)
    om = s.omega(t)
    de = s.delta(t)
    assert om[0] == 0.0 and om[-1] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.abs(np.diff(om)) < 0.02 * TWO_PI * 6e3)
    assert np.all(np.abs(np.diff(de)) < 0.02 * TWO_PI * 400e3)
    # delta-dot at ends tends to zero with shrinking step
    h1, h2 = 1e-9, 1e-10
    d1 = abs(s.delta(h1) - s.delta(0.0)) / h1
    d2 = abs(s.delta(h2) - s.delta(0.0)) / h2
    assert d2 <= d1 + 1e-3


@st.composite
def smooth_params(draw):
    """Valid smooth-gate parameters, tau_g = tau_d and t_c = 0 included."""
    delta_max = TWO_PI * 1e3 * draw(st.floats(50.0, 1000.0)) * draw(st.sampled_from([-1.0, 1.0]))
    tau_g = draw(st.floats(1e-6, 20e-6))
    return SmoothGateParams(
        delta_max=delta_max, delta_min=delta_max * draw(st.floats(0.01, 0.9)),
        omega_g=TWO_PI * 1e3 * draw(st.floats(1.0, 20.0)), tau_g=tau_g,
        tau_d=tau_g * draw(st.one_of(st.just(1.0), st.floats(1.0, 30.0))),
        t_c=draw(st.one_of(st.just(0.0), st.floats(0.0, 50e-6))), j=draw(st.integers(1, 6)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=smooth_params())
def test_smooth_schedule_continuous_bounded_and_mirror_symmetric(p):
    s = build_smooth_schedule(p)
    assert s.duration == pytest.approx(p.duration, rel=1e-12)  # the segment sum rounds differently
    for left, right in zip(s.segments[:-1], s.segments[1:]):
        end, start = np.array([left.duration]), np.array([0.0])
        assert left.omega(end)[0] == pytest.approx(right.omega(start)[0], rel=0.0, abs=1e-9 * p.omega_g)
        assert left.delta(end)[0] == pytest.approx(right.delta(start)[0], rel=1e-9)
    t = np.linspace(0.0, s.duration, 4001)
    om, de = s.omega(t), s.delta(t)
    assert np.all(om >= 0.0) and np.all(om <= p.omega_g * (1 + 1e-12))
    assert np.all(np.sign(de) == p.sign)
    assert np.all(np.abs(de) >= abs(p.delta_min) * (1 - 1e-12))
    assert np.all(np.abs(de) <= abs(p.delta_max) * (1 + 1e-12))
    assert np.allclose(s.omega(s.duration - t), om, rtol=0.0, atol=1e-9 * p.omega_g)
    assert np.allclose(s.delta(s.duration - t), de, rtol=1e-9, atol=0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(p=smooth_params(), x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_smooth_schedule_symmetric_and_built_from_the_ramps(p, x):
    s = build_smooth_schedule(p)
    assert s.duration == pytest.approx(p.duration, rel=1e-12)
    t = np.array(x) * s.duration
    mirror = s.duration - t
    assert np.allclose(s.omega(mirror), s.omega(t), rtol=0.0, atol=1e-9 * p.omega_g)
    assert np.allclose(s.delta(mirror), s.delta(t), rtol=1e-9, atol=0.0)
    # the first half is the amplitude ramp at delta_max, then the detuning
    # ramp at full drive
    u = t[t <= p.tau_g]
    amp = p.omega_g * np.sin(np.pi * u / (2 * p.tau_g)) ** 2
    assert np.allclose(s.omega(u), amp, rtol=0.0, atol=1e-9 * p.omega_g)
    assert np.allclose(s.delta(u), p.delta_max, rtol=1e-9, atol=0.0)
    v = t[(t > p.tau_g) & (t <= p.tau_g + p.tau_d)]
    assert np.allclose(s.omega(v), p.omega_g, rtol=0.0, atol=1e-9 * p.omega_g)
    assert np.allclose(s.delta(v), eval_detuning_ramp(p, v - p.tau_g), rtol=1e-9, atol=0.0)


def test_smooth_schedule_constant_when_detunings_equal():
    # delta_min = delta_max is excluded by the params type; the nearly-equal
    # limit must give a nearly-constant ramp
    p = reference_params(delta_min=-TWO_PI * 399.9999e3)
    s = build_smooth_schedule(p)
    t = np.linspace(0, s.duration, 1001)
    assert np.all(np.abs(s.delta(t) - p.delta_max) < TWO_PI * 1e3)


def test_walsh_schedule_layout():
    p = WalshGateParams(loops=2, delta_g=-TWO_PI * 20e3, omega_g=TWO_PI * 5e3)
    s = build_walsh_schedule(p)
    assert s.duration == pytest.approx(2 * TWO_PI / abs(p.delta_g))
    assert [seg.sign for seg in s.segments] == [1.0, -1.0]
    assert s.boundaries[1] == pytest.approx(0.5 * s.duration)
    assert s.omega(0.3 * s.duration) == pytest.approx(p.omega_g)


def test_walsh_calibrated_duration():
    # maximally entangling Walsh-1 gate at Omega_g = 2pi*5 kHz lasts ~141 us
    p = WalshGateParams.calibrated(loops=2, omega_g=TWO_PI * 5e3)
    assert p.duration == pytest.approx(np.pi * math.sqrt(2) / (TWO_PI * 5e3), rel=1e-12)
    assert p.duration == pytest.approx(141e-6, rel=0.005)
    assert p.delta_g == pytest.approx(-2 * TWO_PI * 5e3 * math.sqrt(2))
    p4 = WalshGateParams.calibrated(loops=4, omega_g=TWO_PI * 5e3)
    assert p4.duration == pytest.approx(200e-6, rel=1e-9)
    with pytest.raises(ParameterError):
        WalshGateParams(loops=3, delta_g=-TWO_PI * 20e3, omega_g=TWO_PI * 5e3)


@pytest.mark.parametrize("loops", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_walsh_loop_count_must_be_an_integer(loops):
    # a float would reach the power-of-two bit test, and True would pass as 1
    with pytest.raises(ParameterError):
        WalshGateParams(loops=loops, delta_g=-TWO_PI * 20e3, omega_g=TWO_PI * 5e3)


def test_schedule_sampling_and_offset():
    s = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 5e3))
    t = np.linspace(0.0, s.duration, 101)
    assert s.omega(t).shape == s.delta(t).shape == (101,)
    assert np.all(s.delta(t) == s.segments[0].delta(0.0))
    off = s.with_detuning_offset(TWO_PI * 500.0)
    assert off.delta(0.3 * s.duration) - s.delta(0.3 * s.duration) == pytest.approx(TWO_PI * 500.0)
    assert off.segments[0].delta(0.0) == pytest.approx(s.segments[0].delta(0.0) + TWO_PI * 500.0)


def test_schedule_rejects_discontinuity():
    seg1 = Segment(1e-5, lambda u: np.full_like(u, 1.0), lambda u: np.full_like(u, 2.0))
    seg2 = Segment(1e-5, lambda u: np.full_like(u, 3.0), lambda u: np.full_like(u, 2.0))
    with pytest.raises(ParameterError):
        PulseSchedule([seg1, seg2])
