"""Mode-frequency-noise filter functions and noise-PSD integrals.

A small mode-frequency error eps(t) = eps0*cos(omega*t + phi_f) perturbs a
gate through two first-order channels: a residual spin-dependent
displacement alpha_t = int eps*gamma dt and a gate-angle error
delta_theta = 2*int eps*|gamma|^2 dt, with gamma the per-unit-eigenvalue
branch displacement.  Averaging the resulting infidelity over the noise
phases phi_f in {0, -pi/2} gives the filter function

    S(omega) = (2*nbar+1)*Var S  *(|A_c|^2 + |A_s|^2)/2
             +            Var S^2*(T_c^2   + T_s^2  )/2,

with Var S = 2 and Var S^2 = 4 the spin moments of the |up,up> input the
benchmarking protocol starts from, A_{c,s} = int cos/sin(omega*t)*gamma dt
and T_{c,s} = int cos/sin(omega*t)*|gamma|^2 dt, so that the infidelity
under noise of power spectral density P is int P(omega)*S(omega) domega.
The one-half phase average is applied to the displacement and angle
components alike; by the cos^2+sin^2 completeness this equals the average
over any full phase cycle.

The numeric path takes these integrals for any schedule as Clenshaw-Curtis
sums at the nodes of the trajectory kernel's panels, each panel split into
equal sub-panels of at most 4 rad of omega*t.  The Walsh closed form
evaluates them loop by loop.  Writing every loop integral as int_a^b
exp(i*q*t) dt = (b-a)*exp(i*q*(a+b)/2)*sinc(q*(b-a)/2) keeps the
expressions finite at the nominal resonances omega = |delta| and
omega -> 0, so no singular special-casing is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ParameterError, check_finite, check_nbar
from .schedule import PulseSchedule, WalshGateParams
from .semiclassical import _UU_VARIANCES, _fourier_sums


@dataclass(frozen=True)
class FilterFunction:
    """Sampled noise filter function S(omega) = ``displacement + angle``.

    ``displacement`` carries the (2*nbar+1) thermal enhancement;
    ``angle`` is temperature independent.  Units are 1/(rad/s)^2 per unit
    eps^2, so that int P(omega)*S(omega) domega is dimensionless.
    """

    omega: np.ndarray = field(repr=False)
    displacement: np.ndarray = field(repr=False)
    angle: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(self.displacement < 0) or np.any(self.angle < 0):
            raise ParameterError("filter function components must be >= 0")

    @property
    def total(self) -> np.ndarray:
        return self.displacement + self.angle


def _checked_omega(nbar: float, omega) -> np.ndarray:
    check_nbar(nbar)
    om = np.asarray(omega, dtype=float)
    if (om.ndim != 1 or om.size == 0 or not np.all(np.isfinite(om)) or np.any(om <= 0)
            or np.any(np.diff(om) <= 0)):
        raise GridError("omega grid must be positive, finite and strictly increasing")
    return om


def _assemble(omega, a_c, a_s, t_c, t_s, nbar) -> FilterFunction:
    var_s, var_s2 = _UU_VARIANCES
    disp = 0.5 * (2 * nbar + 1) * var_s * (np.abs(a_c) ** 2 + np.abs(a_s) ** 2)
    ang = 0.5 * var_s2 * (t_c ** 2 + t_s ** 2)
    return FilterFunction(omega=omega, displacement=disp, angle=ang)


def filter_function_numeric(schedule: PulseSchedule, nbar: float = 0.0, *,
                            omega: np.ndarray, rtol: float = 1e-11,
                            atol: float = 1e-13) -> FilterFunction:
    """Filter function of an arbitrary schedule from the exact trajectory.

    The Fourier integrals of the unit-branch gamma(t) are Clenshaw-Curtis
    sums at the trajectory kernel's nodes (panels bisected to ``rtol`` as
    in :func:`propagate_displacement`, with ``atol`` in place of its
    1e-13), on sub-panels of at most 4 rad of omega*t.
    """
    om = _checked_omega(nbar, omega)
    return _assemble(om, *_fourier_sums(schedule, om, rtol, atol), nbar)


def _exp_integral(q: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^b exp(i*q*t) dt in sinc form, regular at q = 0."""
    half = (b - a) / 2.0
    return (b - a) * np.exp(1j * q * (a + b) / 2.0) * np.sinc(q * half / np.pi)


def filter_function_walsh_analytic(p: WalshGateParams, nbar: float = 0.0, *,
                                   omega: np.ndarray) -> FilterFunction:
    """Closed-form filter function of a Walsh-modulated constant-drive gate.

    On loop m the displacement is gamma = -(W_m*Omega/2/delta)*
    (exp(i*delta*t)-1), so every Fourier integral reduces to exponential
    integrals over the loop windows, evaluated in sinc form (finite at
    omega = |delta| and omega -> 0).  The modulus |gamma|^2 =
    (Omega^2/2/delta^2)*(1-cos(delta*t)) is Walsh independent, so the
    angle component never benefits from the modulation.
    """
    om = _checked_omega(nbar, omega)

    de, og, t_k, t_g = p.delta_g, p.omega_g, p.loop_time, p.duration

    a_c, a_s = np.zeros(om.size, dtype=complex), np.zeros(om.size, dtype=complex)
    for m, w_m in enumerate(p.signs):
        a, b = m * t_k, (m + 1) * t_k
        e_pp = _exp_integral(de + om, a, b)
        e_pm = _exp_integral(de - om, a, b)
        e_p = _exp_integral(om, a, b)
        # cos(w t)*(e^{i d t}-1) and sin(w t)*(e^{i d t}-1), loop m
        a_c += w_m * ((e_pp + e_pm) / 2.0 - e_p.real)
        a_s += w_m * ((e_pp - e_pm) / (2.0j) - e_p.imag)
    pref = -og / (2.0 * de)
    a_c *= pref
    a_s *= pref

    e_w = _exp_integral(om, 0.0, t_g)
    e_wp = _exp_integral(om + de, 0.0, t_g)
    e_wm = _exp_integral(om - de, 0.0, t_g)
    t_c = (og ** 2 / (2 * de ** 2)) * (e_w.real - (e_wp.real + e_wm.real) / 2.0)
    t_s = (og ** 2 / (2 * de ** 2)) * (e_w.imag - (e_wp.imag + e_wm.imag) / 2.0)
    return _assemble(om, a_c, a_s, t_c, t_s, nbar)


# ---------------------------------------------------------------------------
# noise spectra


@dataclass(frozen=True)
class PowerLawPsd:
    """P(omega) = amplitude * omega^(-exponent) on [omega_min, omega_max].

    ``amplitude`` carries units (rad/s)^2 * (rad/s)^(exponent-1) so that
    int P domega is the mode-frequency variance captured in the band.
    """

    amplitude: float
    exponent: float
    omega_min: float
    omega_max: float

    def __post_init__(self):
        check_finite(**vars(self))
        if self.amplitude < 0:
            raise ParameterError("amplitude must be >= 0")
        if not 0 <= self.omega_min < self.omega_max:
            raise ParameterError("need 0 <= omega_min < omega_max")
        if self.exponent > 0 and self.omega_min <= 0:
            raise ParameterError("decaying power law needs a positive low cutoff")
        if self.exponent >= 1 and self.omega_min == 0:
            raise ParameterError("power law not integrable without low cutoff")

    @property
    def band(self) -> tuple[float, float]:
        return (self.omega_min, self.omega_max)

    def __call__(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        inside = (w >= self.omega_min) & (w <= self.omega_max)
        with np.errstate(divide="ignore"):
            vals = self.amplitude * np.where(inside, w, 1.0) ** (-self.exponent)
        return np.where(inside, vals, 0.0)


@dataclass(frozen=True)
class SampledPsd:
    """Piecewise-linear PSD from samples; zero outside the sampled band."""

    omega: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape or w.size < 2:
            raise ParameterError("need matching 1-D omega and value arrays")
        if not np.all(np.isfinite(w)) or np.any(w <= 0) or np.any(np.diff(w) <= 0):
            raise ParameterError("omega samples must be positive, finite and increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ParameterError("PSD values must be finite and >= 0")
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "values", v)

    @property
    def band(self) -> tuple[float, float]:
        return (float(self.omega[0]), float(self.omega[-1]))

    def __call__(self, omega) -> np.ndarray:
        return np.interp(omega, self.omega, self.values, left=0.0, right=0.0)


@dataclass(frozen=True)
class NoiseInfidelity:
    """Quadrature result int P*S domega with a Richardson error estimate."""

    value: float
    quad_error: float


def noise_infidelity_integral(ff: FilterFunction, psd) -> NoiseInfidelity:
    """Integrate the filter function against a noise PSD over their overlap.

    The integrand is evaluated on the union of the filter-function grid
    and any PSD sample points inside the overlapping band; the error
    estimate compares the trapezoid result against the half-resolution
    one.
    """
    lo = max(float(ff.omega[0]), psd.band[0])
    hi = min(float(ff.omega[-1]), psd.band[1])
    if not lo < hi:
        raise ParameterError("filter function and PSD do not overlap in omega")
    pts = [ff.omega[(ff.omega >= lo) & (ff.omega <= hi)], np.array([lo, hi])]
    if isinstance(psd, SampledPsd):
        pts.append(psd.omega[(psd.omega >= lo) & (psd.omega <= hi)])
    grid = np.unique(np.concatenate(pts))
    integrand = psd(grid) * np.interp(grid, ff.omega, ff.total)
    full = float(np.trapezoid(integrand, grid))
    # every second point, keeping the last so both sums cover the same band
    coarse = np.append(np.arange(0, grid.size - 1, 2), grid.size - 1)
    half = float(np.trapezoid(integrand[coarse], grid[coarse]))
    return NoiseInfidelity(value=full, quad_error=abs(full - half) / 3.0)
