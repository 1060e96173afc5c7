"""Tests for mode-frequency-noise filter functions and noise integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongate import semiclassical
from iongate.errors import GridError, ParameterError
from iongate.filterfn import (
    FilterFunction,
    PowerLawPsd,
    SampledPsd,
    filter_function_numeric,
    filter_function_walsh_analytic,
    noise_infidelity_integral,
)
from iongate.schedule import (
    PulseSchedule,
    Segment,
    SmoothGateParams,
    WalshGateParams,
    build_smooth_schedule,
    build_walsh_schedule,
)
from iongate.semiclassical import (
    calibrate_delta_min,
    perturbative_infidelity,
)

TWO_PI = 2.0 * np.pi
OMEGA_G = TWO_PI * 5e3


@pytest.fixture(scope="module")
def walsh3():
    return WalshGateParams.calibrated(4, OMEGA_G)


@pytest.fixture(scope="module")
def smooth_reference():
    # Reference slow-ramp gate matched to the 4-loop Walsh sequence above:
    # same drive strength, same 200 us total duration.  delta_min is solved
    # so the gate angle is exactly -pi/2.
    base = SmoothGateParams(
        delta_max=-TWO_PI * 400e3,
        delta_min=-TWO_PI * 20e3,
        omega_g=OMEGA_G,
        tau_g=5e-6,
        tau_d=95e-6,
        t_c=0.0,
        j=4,
    )
    return calibrate_delta_min(base, use="exact")


def test_zero_drive_gives_zero_filter_function():
    sched = PulseSchedule(
        (Segment(50e-6, lambda t: 0.0 * t, lambda t: 0.0 * t + 1e5),)
    )
    om = np.geomspace(1e3, 1e6, 40)
    ff = filter_function_numeric(sched, omega=om)
    assert np.all(ff.total == 0.0)


def test_walsh1_displacement_vanishes_at_low_frequency(walsh3):
    p = WalshGateParams.calibrated(2, OMEGA_G)
    om = np.geomspace(1e-1, 1e6, 200)
    ff = filter_function_walsh_analytic(p, omega=om)
    # the two loops traverse the same circle with opposite signs, so the
    # net displacement sensitivity goes to zero at dc (quadratically: the
    # sine-phase response vanishes only linearly in omega)
    peak = ff.displacement.max()
    assert ff.displacement[0] < 1e-10 * peak
    quadratic = (om[1] / om[0]) ** 2
    assert ff.displacement[1] / ff.displacement[0] == pytest.approx(quadratic, rel=0.05)
    # a single uncompensated loop keeps a finite dc displacement response
    p0 = WalshGateParams.calibrated(1, OMEGA_G)
    ff0 = filter_function_walsh_analytic(p0, omega=om)
    assert ff0.displacement[0] > 1e-4 * ff0.displacement.max()


@pytest.mark.parametrize("loops", [1, 2, 4])
def test_analytic_matches_numeric(loops):
    p = WalshGateParams.calibrated(loops, OMEGA_G)
    sched = build_walsh_schedule(p)
    # geometric grid with extra points around the resonances |delta_g| and Omega_g
    dg, og = abs(p.delta_g), abs(p.omega_g)
    om = np.unique(np.concatenate([np.geomspace(1e2, 1e7, 120),
                                   np.geomspace(dg / 3, dg * 3, 20),
                                   np.geomspace(og / 3, og * 3, 20)]))
    fa = filter_function_walsh_analytic(p, 1.5, omega=om)
    fn = filter_function_numeric(sched, 1.5, omega=om)
    mask = fa.total > 1e-3 * fa.total.max()
    rel = np.abs(fn.total[mask] - fa.total[mask]) / fa.total[mask]
    assert rel.max() < 1e-12


@settings(max_examples=25, derandomize=True, deadline=None)
@given(loops=st.sampled_from([1, 2, 4, 8]), omega_hz=st.floats(1e3, 2e4),
       nbar=st.floats(0.0, 10.0))
def test_numeric_matches_walsh_closed_form(loops, omega_hz, nbar):
    # gamma has kinks at every loop join; the node sums still meet the
    # closed form to rounding wherever the filter is not negligible
    p = WalshGateParams.calibrated(loops, TWO_PI * omega_hz)
    om = np.geomspace(1e2, 1e7, 200)
    fa = filter_function_walsh_analytic(p, nbar, omega=om)
    fn = filter_function_numeric(build_walsh_schedule(p), nbar, omega=om)
    mask = fa.total > 1e-3 * fa.total.max()
    rel = np.abs(fn.total[mask] - fa.total[mask]) / fa.total[mask]
    assert rel.max() < 1e-12


def test_smooth_gate_matches_phase_averaged_perturbation_theory(smooth_reference):
    # the smooth gate has no closed form; perturbation theory with an
    # injected cosine is the second route, up to where its panels stop
    # resolving cos(omega*t)
    sched = build_smooth_schedule(smooth_reference)
    om = np.geomspace(1e2, 4.4e5, 12)
    ff = filter_function_numeric(sched, 1.0, omega=om)
    for k, w in enumerate(om):
        total = sum(perturbative_infidelity(sched, lambda t: np.cos(w * t + phase), 1.0).total
                    for phase in (0.0, -np.pi / 2))
        assert 0.5 * total == pytest.approx(ff.total[k], rel=1e-12, abs=0)


@pytest.mark.parametrize("budget", [2.0, 8.0])
def test_sub_panel_phase_budget_is_converged(smooth_reference, monkeypatch, budget):
    # the benchmark's grid: 400 frequencies from 20 Hz to 1.6 MHz at nbar = 10
    sched = build_smooth_schedule(smooth_reference)
    om = np.geomspace(TWO_PI * 20.0, TWO_PI * 1.6e6, 400)
    default = filter_function_numeric(sched, 10.0, omega=om).total
    monkeypatch.setattr(semiclassical, "_FOURIER_PHASE", budget)
    other = filter_function_numeric(sched, 10.0, omega=om).total
    mask = default > 1e-3 * default.max()
    assert np.max(np.abs(other[mask] - default[mask]) / default[mask]) < 1e-12


@pytest.mark.parametrize("loops", [1, 2, 4])
def test_angle_component_low_frequency_limit(loops):
    # For a calibrated K-loop gate the integrated |gamma|^2 is pi/(8*sqrt(K)*Omega)
    # per unit branch eigenvalue, so the dc angle component is
    # Var S^2 * pi^2 / (128 * K * Omega^2) under the two-phase average, with
    # Var S^2 = 4 for the |uu> input.
    p = WalshGateParams.calibrated(loops, OMEGA_G)
    om = np.array([1e-2, 1e-1])
    ff = filter_function_walsh_analytic(p, omega=om)
    expected = 4.0 * np.pi**2 / (128.0 * loops * OMEGA_G**2)
    assert ff.angle[0] == pytest.approx(expected, rel=1e-9)
    assert ff.displacement[0] <= 1e-12 * ff.angle[0] or loops == 1


def test_thermal_occupation_scales_displacement_only(walsh3):
    om = np.geomspace(1e3, 1e6, 60)
    f0 = filter_function_walsh_analytic(walsh3, 0.0, omega=om)
    f2 = filter_function_walsh_analytic(walsh3, 2.0, omega=om)
    f8 = filter_function_walsh_analytic(walsh3, 8.0, omega=om)
    np.testing.assert_allclose(f2.angle, f0.angle, rtol=1e-14)
    np.testing.assert_allclose(f2.displacement, 5.0 * f0.displacement, rtol=1e-12)
    np.testing.assert_allclose(f8.displacement, 17.0 * f0.displacement, rtol=1e-12)


def test_high_frequency_rolloff_exponents(walsh3):
    # Raw log-log fits catch sinc ripple; average over log-spaced bins first.
    om = np.geomspace(1e6, 1e8, 4000)
    ff = filter_function_walsh_analytic(walsh3, omega=om)
    edges = np.geomspace(1e6, 1e8, 41)
    idx = np.digitize(om, edges) - 1
    for comp, want in ((ff.displacement, -4.0), (ff.angle, -6.0)):
        x, y = [], []
        for b in range(40):
            sel = idx == b
            x.append(np.log(om[sel]).mean())
            y.append(np.log(comp[sel].mean()))
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(want, abs=0.3)


def test_matches_phase_averaged_perturbation_theory(walsh3):
    # the filter function values are 1.8e-13 to 8.3e-10, so abs must be 0
    sched = build_walsh_schedule(walsh3)
    om = np.array([3e3, 1.3e4, 9e4, walsh3.delta_g * -1.0, 4e5])
    ff = filter_function_walsh_analytic(walsh3, 1.0, omega=om)
    for k, w in enumerate(om):
        total = 0.0
        for phase in (0.0, -np.pi / 2):
            total += perturbative_infidelity(sched, lambda t: np.cos(w * t + phase), 1.0).total
        assert 0.5 * total == pytest.approx(ff.total[k], rel=1e-10, abs=0)


def test_two_phase_average_equals_four_phase_average(walsh3):
    sched = build_walsh_schedule(walsh3)
    rng = np.random.default_rng(7)
    for w in rng.uniform(2e3, 2e5, 6):
        two = sum(
            perturbative_infidelity(sched, lambda t: np.cos(w * t + ph), 0.5).total
            for ph in (0.0, -np.pi / 2)
        ) / 2.0
        four = sum(
            perturbative_infidelity(sched, lambda t: np.cos(w * t + ph), 0.5).total
            for ph in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
        ) / 4.0
        assert two == pytest.approx(four, rel=1e-10)


def test_smooth_gate_beats_walsh_at_low_frequency(walsh3, smooth_reference):
    sched = build_smooth_schedule(smooth_reference)
    om = np.geomspace(1e2, 1e5, 80)
    fs = filter_function_numeric(sched, omega=om)
    fw = filter_function_walsh_analytic(walsh3, omega=om)
    ratio = fw.total[0] / fs.total[0]
    assert 2.0 < ratio < 3.4
    # the advantage grows with frequency through the sub-Omega_g band
    i_mid = np.argmin(np.abs(om - OMEGA_G / 2))
    assert fw.total[i_mid] / fs.total[i_mid] > ratio


def test_thermal_divergence_frequency_ordering(walsh3, smooth_reference):
    sched = build_smooth_schedule(smooth_reference)
    om = np.geomspace(1e2, 1e6, 160)

    def divergence(ff0, ff10):
        above = ff10.total >= 2.0 * ff0.total
        assert above.any()
        return om[np.argmax(above)]

    div_s = divergence(filter_function_numeric(sched, 0.0, omega=om),
                       filter_function_numeric(sched, 10.0, omega=om))
    div_w = divergence(filter_function_walsh_analytic(walsh3, 0.0, omega=om),
                       filter_function_walsh_analytic(walsh3, 10.0, omega=om))
    assert div_s > om[0] and div_w > om[0]
    assert div_s > 2.0 * div_w


def test_noise_integral_zero_psd(walsh3):
    om = np.geomspace(1e3, 1e6, 200)
    ff = filter_function_walsh_analytic(walsh3, omega=om)
    psd = SampledPsd(np.array([1e3, 1e6]), np.array([0.0, 0.0]))
    out = noise_infidelity_integral(ff, psd)
    assert out.value == 0.0


def test_noise_integral_narrowband_recovers_filter_value(walsh3):
    w0 = 5e4
    om = np.geomspace(1e3, 1e6, 600)
    ff = filter_function_walsh_analytic(walsh3, 3.0, omega=om)
    width = 0.01 * w0
    grid = np.linspace(w0 - 3 * width, w0 + 3 * width, 257)
    p0 = 2.5e5
    vals = p0 * np.exp(-0.5 * ((grid - w0) / width) ** 2) / (width * np.sqrt(TWO_PI))
    out = noise_infidelity_integral(ff, SampledPsd(grid, vals))
    ff_at = filter_function_walsh_analytic(walsh3, 3.0, omega=np.array([w0, 2 * w0]))
    assert out.value == pytest.approx(p0 * ff_at.total[0], rel=0.02)


def test_noise_integral_quadrature_error_estimate(walsh3):
    om = np.geomspace(1e3, 1e6, 400)
    ff = filter_function_walsh_analytic(walsh3, omega=om)
    psd = PowerLawPsd(1e4, 1.0, 1e3, 1e6)
    out = noise_infidelity_integral(ff, psd)
    assert out.value > 0
    assert out.quad_error < 0.05 * out.value


def test_noise_integral_error_estimate_on_even_grid():
    # a linear integrand is integrated exactly at both resolutions, so the
    # estimate vanishes when the coarse sum keeps the band's last point
    om = np.linspace(1e3, 1e4, 10)
    s = 1e-12 * om
    ff = FilterFunction(omega=om, displacement=s, angle=np.zeros_like(om))
    out = noise_infidelity_integral(ff, SampledPsd(om[[0, -1]], np.array([2.0, 2.0])))
    assert out.value == pytest.approx(1e-12 * (1e4 ** 2 - 1e3 ** 2), rel=1e-12)
    assert out.quad_error <= 1e-14 * out.value


def test_low_frequency_noise_prefers_smooth_gate(walsh3, smooth_reference):
    sched = build_smooth_schedule(smooth_reference)
    om = np.geomspace(1e2, 1e6, 300)
    psd = PowerLawPsd(1e3, 1.0, 1e2, 1e4)
    fs = filter_function_numeric(sched, omega=om)
    fw = filter_function_walsh_analytic(walsh3, omega=om)
    assert noise_infidelity_integral(fs, psd).value < noise_infidelity_integral(fw, psd).value


def test_noise_integral_rejects_disjoint_support(walsh3):
    om = np.geomspace(1e3, 1e4, 50)
    ff = filter_function_walsh_analytic(walsh3, omega=om)
    psd = SampledPsd(np.array([1e6, 2e6]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        noise_infidelity_integral(ff, psd)


def test_power_law_psd_validation():
    with pytest.raises(ParameterError):
        PowerLawPsd(1.0, 1.5, 0.0, 1e6)  # divergent at dc without cutoff
    with pytest.raises(ParameterError):
        PowerLawPsd(-1.0, 1.0, 1e2, 1e6)
    psd = PowerLawPsd(2.0, 2.0, 1e2, 1e6)
    assert psd(np.array([50.0, 1e3]))[0] == 0.0
    assert psd(np.array([1e3]))[0] == pytest.approx(2.0 * 1e-6)


def test_omega_grid_validation(walsh3):
    sched = build_walsh_schedule(walsh3)
    with pytest.raises(GridError):
        filter_function_numeric(sched, omega=np.array([1e3, 1e3]))
    with pytest.raises(GridError):
        filter_function_walsh_analytic(walsh3, omega=np.array([-1.0, 1e3]))
    with pytest.raises(ParameterError):
        filter_function_numeric(sched, nbar=-0.5, omega=np.array([1e3, 1e4]))


def test_filter_function_validation():
    om = np.array([1.0, 2.0])
    with pytest.raises(ParameterError):
        FilterFunction(omega=om, displacement=-np.ones(2), angle=np.zeros(2))
    ff = FilterFunction(omega=om, displacement=np.ones(2) * 0.25, angle=np.ones(2) * 0.75)
    assert np.array_equal(ff.total, ff.displacement + ff.angle)
