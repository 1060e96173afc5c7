"""Per-branch forced-oscillator dynamics and perturbative gate errors.

In the eigenbasis of the collective spin operator S_alpha the gate drive
reduces, per eigenvalue s in {+2, 0, 0, -2}, to a classically forced
oscillator.  In the frame co-rotating with the accumulated detuning phase
eta(t) = int_0^t delta dt' the displacement obeys

    d(gamma)/dt = -i*(s/2)*W(t)*Omega(t)*exp(i*eta(t)),

with W(t) the Walsh drive sign.  This sign and frame convention is the
canonical one used throughout the package; the closed form for constant
drive, gamma = -(s*Omega/2/delta)*(exp(i*delta*t)-1), vanishes at full
loops and is validated against the propagators in the tests.  The
geometric phase accumulates as area increments

    d(theta)/dt = Im(conj(gamma) * d(gamma)/dt),

which for constant drive integrates to (s*Omega/2)^2 * (t - sin(delta*t)/
delta)/delta.  The gate angle (relative phase between forced and null
branches) is theta of the |s| = 2 branch and is proportional to Omega^2
for a fixed schedule shape, which the calibration helpers exploit.

eta, gamma and theta are nested running integrals, not a stiff ODE, so
one kernel computes them for every segment: spectral cumulative
integration on adaptively bisected Chebyshev-Lobatto panels (Greengard
1991, SIAM J. Numer. Anal. 28, 1071), see :func:`propagate_displacement`.
A static detuning offset eps only adds eps*t to eta, so
:func:`branch_endpoints` serves a whole family of offsets from one panel
set per segment, with the running integrals as (offsets, panels, nodes)
arrays.  Its zero-offset member at the panel nodes is the one trajectory
that :func:`propagate_displacement`, the adiabatic quadratures and
:func:`perturbative_infidelity` read.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, GridError, ParameterError
from .schedule import PulseSchedule, Segment, SmoothGateParams, TWO_PI, build_smooth_schedule

# Output grids must resolve the fastest detuning period by at least this
# many points.
GRID_POINTS_PER_PERIOD = 20

# Chebyshev-Lobatto nodes per quadrature panel; the drive and detuning of a
# segment count as unresolved if a panel needs more halvings, or the
# segment more panels, than the limits below.
PANEL_NODES = 16
MAX_BISECTIONS = 50
MAX_PANELS = 4096

# Offsets of a family integrated together: the running integrals are
# (offsets, panels, nodes) arrays, which this keeps to about a megabyte.
OFFSET_BLOCK = 64

# Above this peak of the adiabaticity metric the adiabatic gate-angle
# estimate is untrusted.
ADIABATICITY_WARN = 0.3


@dataclass(frozen=True)
class BranchTrajectory:
    """Sampled c-number trajectory of one spin branch.

    ``gamma`` is the dimensionless displacement in the frame co-rotating
    with eta (it excludes the free evolution exp(-i*eta*n)).  ``theta`` is
    the accumulated geometric phase of this branch; null branches carry
    gamma = theta = 0 identically.
    """

    t: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)

    @property
    def gamma_end(self) -> complex:
        return complex(self.gamma[-1])

    @property
    def theta_end(self) -> float:
        return float(self.theta[-1])

    @property
    def eta_end(self) -> float:
        return float(self.eta[-1])


def _segment_grid(seg: Segment) -> np.ndarray:
    per = TWO_PI / max(seg.max_abs_delta(), 1.0 / seg.duration)
    n = max(33, int(math.ceil(GRID_POINTS_PER_PERIOD * seg.duration / per)) + 1)
    return np.linspace(0.0, seg.duration, n)


def check_output_grid(schedule: PulseSchedule, t_eval) -> list[np.ndarray]:
    """Check an output time grid and split it into per-segment local times.

    The grid must be a sorted 1-D array inside the schedule, resolving the
    fastest detuning period of each segment by at least
    ``GRID_POINTS_PER_PERIOD`` points; otherwise GridError.
    """
    t = np.asarray(t_eval, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) < 0):
        raise GridError("t_eval must be a sorted 1-D array")
    if t[0] < -1e-12 or t[-1] > schedule.duration * (1 + 1e-9):
        raise GridError("t_eval extends outside the schedule")
    bounds = schedule.boundaries
    idx = np.searchsorted(bounds[1:-1], t, side="right")
    locals_per_seg = []
    for i, seg in enumerate(schedule.segments):
        u = t[idx == i] - bounds[i]
        if u.size > 1:
            per = TWO_PI / max(seg.max_abs_delta(), 1e-300)
            if np.max(np.diff(u)) > per / GRID_POINTS_PER_PERIOD * (1 + 1e-9):
                raise GridError(
                    f"grid spacing {np.max(np.diff(u)):.3e} s too coarse for detuning period "
                    f"{per:.3e} s (need >= {GRID_POINTS_PER_PERIOD} points per period)")
        locals_per_seg.append(u)
    return locals_per_seg


def _chebyshev_lobatto(n: int):
    """Nodes on [-1, 1], values-to-coefficients, cumulative-integral and derivative matrices.

    ``cumint @ f`` gives int_{-1}^{x_k} p(x) dx and ``diff @ f`` gives
    p'(x_k) at every node for the interpolant p of the node values f.
    """
    cheb = np.polynomial.chebyshev
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    to_coef = np.linalg.inv(cheb.chebvander(x, n - 1))
    antider = cheb.chebint(np.eye(n), lbnd=-1.0)
    cumint = cheb.chebval(x, antider).T @ to_coef
    diff = cheb.chebval(x, cheb.chebder(np.eye(n))).T @ to_coef
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] /= 2.0
    return x, to_coef, cumint, diff, weights


_X, _TO_COEF, _CUMINT, _DIFF, _BARY = _chebyshev_lobatto(PANEL_NODES)


def _panels(seg: Segment, offsets: np.ndarray, rtol: float, atol: float):
    """Panels resolving Omega and delta + eps on one segment for every offset eps.

    Start from cuts of at most 1 rad of phase budget, the union of the cuts
    at the smallest and largest offset: max(|delta + eps|, |Omega|) is
    convex in eps, so on each piece any offset in between spends at most
    the integral of the two ends' larger rate, which is below 2 rad.  Then
    bisect every panel whose last two Chebyshev coefficients of W*Omega or
    delta exceed rtol (floored at 100 machine epsilons) times that
    function's largest magnitude on the segment (for delta + eps, the
    smallest over the offsets) plus atol/duration.  More than
    ``MAX_PANELS`` panels, in the initial cut or after any bisection, raise
    :class:`ConvergenceError`.  Returns (lo, hi, W*Omega, delta) sampled at
    the panel nodes, delta without the offsets.
    """
    rtol = max(rtol, 100.0 * np.finfo(float).eps)
    first, last = offsets.min(), offsets.max()
    edges = seg.shifted(first).phase_edges(TWO_PI)
    if last > first:
        edges = np.union1d(edges, seg.shifted(last).phase_edges(TWO_PI))
    lo, hi = edges[:-1], edges[1:]
    if lo.size > MAX_PANELS:
        raise ConvergenceError(f"segment {seg.label or '?'}: {lo.size} panels of 1 rad of "
                               f"phase budget exceed {MAX_PANELS}")
    parts, scales, count, floor = [], None, lo.size, atol / seg.duration
    for level in range(MAX_BISECTIONS + 1):
        u = ((lo + hi) / 2.0)[:, None] + ((hi - lo) / 2.0)[:, None] * _X
        om = seg.sign * np.asarray(seg.omega(u.ravel()), dtype=float).reshape(u.shape)
        de = np.asarray(seg.delta(u.ravel()), dtype=float).reshape(u.shape)
        if scales is None:
            de_scale = np.min(np.maximum(np.abs(de.max() + offsets), np.abs(de.min() + offsets)))
            scales = np.array([[np.max(np.abs(om))], [de_scale]])
        tail = np.max(np.abs(np.stack((om, de)) @ _TO_COEF[-2:].T), axis=2)
        ok = (tail <= rtol * scales + floor).all(axis=0)
        parts.append((lo[ok], hi[ok], om[ok], de[ok]))
        if ok.all():
            break
        count += np.count_nonzero(~ok)
        if level == MAX_BISECTIONS or count > MAX_PANELS:
            raise ConvergenceError(f"segment {seg.label or '?'}: drive or detuning not resolved "
                                   f"within {MAX_BISECTIONS} bisections and {MAX_PANELS} "
                                   f"panels at rtol={rtol:.3g}")
        mid = (lo[~ok] + hi[~ok]) / 2.0
        lo, hi = np.concatenate((lo[~ok], mid)), np.concatenate((mid, hi[~ok]))
    lo, hi, om, de = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(lo)
    return lo[order], hi[order], om[order], de[order]


def _cumulative(f: np.ndarray, half: np.ndarray, start: np.ndarray):
    """Running integral at the nodes of consecutive panels, from ``start``.

    ``f`` is (offsets, panels, nodes) and ``start`` holds one value per offset.
    """
    local = (f @ _CUMINT.T) * half[:, None]
    steps = np.cumsum(local[:, :-1, -1], axis=1)
    offsets = start[:, None] + np.concatenate((np.zeros((f.shape[0], 1)), steps), axis=1)
    return local + offsets[:, :, None]


def _interpolate(lo: np.ndarray, hi: np.ndarray, values, u: np.ndarray):
    """Barycentric interpolation of per-panel node values at local times u."""
    k = np.clip(np.searchsorted(lo, u, side="right") - 1, 0, lo.size - 1)
    x = ((u - lo[k]) - (hi[k] - u)) / (hi[k] - lo[k])
    d = x[:, None] - _X
    hit = d == 0.0
    d[hit] = 1.0
    r = _BARY / d
    on_node = hit.any(axis=1)
    r[on_node] = hit[on_node]
    r /= r.sum(axis=1, keepdims=True)
    return [np.einsum("mk,mk->m", r, f[k]) for f in values]


def _sweep(panels, offsets: np.ndarray, s: float):
    """Yield eta, gamma and theta at the nodes of each segment's panels.

    The running integrals are (offsets, panels, nodes) arrays, continued
    across segments.
    """
    gamma0 = np.zeros(offsets.size, dtype=complex)
    eta0, theta0 = np.zeros(offsets.size), np.zeros(offsets.size)
    for lo, hi, om, de in panels:
        half = (hi - lo) / 2.0
        eta = _cumulative(de + offsets[:, None, None], half, eta0)
        dgamma = -0.5j * s * om * np.exp(1j * eta)
        gamma = _cumulative(dgamma, half, gamma0)
        theta = _cumulative(np.imag(np.conj(gamma) * dgamma), half, theta0)
        yield gamma, eta, theta
        gamma0, eta0, theta0 = gamma[:, -1, -1], eta[:, -1, -1], theta[:, -1, -1]


# One segment of a branch at the kernel's panel nodes: the panel edges lo and
# hi in segment-local time, then (panels, nodes) arrays of schedule times,
# Clenshaw-Curtis weights, W*Omega, delta, eta, gamma and theta.
_Nodes = namedtuple("_Nodes", "lo hi t weights om de eta gamma theta")


def _node_trajectory(schedule: PulseSchedule, s: float, rtol: float, atol: float) -> list[_Nodes]:
    """One branch along the schedule at the nodes of the kernel's panels, per segment."""
    zero = np.zeros(1)
    panels = [_panels(seg, zero, rtol, atol) for seg in schedule.segments]
    nodes = []
    for start, (lo, hi, om, de), (gamma, eta, theta) in zip(schedule.boundaries, panels,
                                                            _sweep(panels, zero, s)):
        half = ((hi - lo) / 2.0)[:, None]
        t = start + ((lo + hi) / 2.0)[:, None] + half * _X
        nodes.append(_Nodes(lo, hi, t, _CUMINT[-1] * half, om, de, eta[0], gamma[0], theta[0]))
    return nodes


def branch_endpoints(schedule: PulseSchedule, offsets, branch_eigenvalue: float = 2.0,
                     rtol: float = 1e-11, atol: float = 1e-13):
    """gamma, theta and eta at the end of one branch under each static offset.

    Offset eps adds eps to delta(t), as :meth:`PulseSchedule.with_detuning_offset`
    does; the whole family shares one panel set per segment, cut and
    bisected as in :func:`propagate_displacement` for the offset that needs
    the finest panels, and is integrated ``OFFSET_BLOCK`` offsets at a time
    so that memory stays bounded.  Returns three arrays of shape
    (len(offsets),).
    """
    offs = np.asarray(offsets, dtype=float)
    if offs.ndim != 1 or offs.size == 0:
        raise ParameterError("offsets must be a non-empty 1-D array")
    if not np.all(np.isfinite(offs)):
        raise ParameterError("detuning offsets must be finite")
    panels = [_panels(seg, offs, rtol, atol) for seg in schedule.segments]
    gamma_end = np.empty(offs.size, dtype=complex)
    theta_end, eta_end = np.empty_like(offs), np.empty_like(offs)
    for start in range(0, offs.size, OFFSET_BLOCK):
        block = slice(start, start + OFFSET_BLOCK)
        for gamma, eta, theta in _sweep(panels, offs[block], float(branch_eigenvalue)):
            pass
        gamma_end[block], theta_end[block], eta_end[block] = \
            gamma[:, -1, -1], theta[:, -1, -1], eta[:, -1, -1]
    return gamma_end, theta_end, eta_end


def propagate_displacement(schedule: PulseSchedule, branch_eigenvalue: float = 1.0,
                           t_eval: np.ndarray | None = None, rtol: float = 1e-11,
                           atol: float = 1e-13) -> BranchTrajectory:
    """Integrate eta, gamma and theta for one spin branch along a schedule.

    Each segment is cut into panels of at most 1 rad of phase budget
    int max(|delta|, |Omega|) dt, each carrying ``PANEL_NODES``
    Chebyshev-Lobatto nodes, and bisected until the trailing Chebyshev
    coefficients of Omega and delta fall below ``rtol`` (floored at 100
    machine epsilons) times their scale on the segment plus
    ``atol``/duration; an unresolved segment raises
    :class:`ConvergenceError`.  The node values are interpolated onto the
    output times per panel (barycentric, exact at the nodes).

    The default output grid resolves the fastest detuning period of each
    segment by ``GRID_POINTS_PER_PERIOD`` points; a user-supplied
    ``t_eval`` must pass :func:`check_output_grid`.
    """
    locals_per_seg = ([_segment_grid(seg) for seg in schedule.segments] if t_eval is None
                      else check_output_grid(schedule, t_eval))
    ts, cols = [], []
    nodes = _node_trajectory(schedule, float(branch_eigenvalue), rtol, atol)
    for seg, u, start in zip(nodes, locals_per_seg, schedule.boundaries):
        if u.size:
            ts.append(u + start)
            cols.append(_interpolate(seg.lo, seg.hi, (seg.gamma, seg.eta, seg.theta), u))

    t_all = np.concatenate(ts)
    gamma, eta, theta = (np.concatenate(col) for col in zip(*cols))
    # merge duplicated join points from per-segment grids
    keep = np.concatenate(([True], np.diff(t_all) > 0))
    return BranchTrajectory(t=t_all[keep], gamma=gamma[keep], eta=eta[keep], theta=theta[keep])


def gate_angle_exact(schedule: PulseSchedule, **solver_kwargs) -> float:
    """Gate angle theta_g: geometric phase of the |s|=2 branch at t_g."""
    _, theta, _ = branch_endpoints(schedule, [0.0], 2.0, **solver_kwargs)
    return float(theta[0])


def _following(schedule: PulseSchedule):
    """Yield each segment's node trajectory, alpha_dot and adiabaticity metric.

    alpha = -W*Omega/delta and the metric is d(alpha_dot/delta)/dt / delta.
    Each panel is differentiated spectrally with its first value taken off,
    so that a constant panel has a derivative of exactly zero.
    """
    def derivative(f, half):
        return (f - f[:, :1]) @ _DIFF.T / half[:, None]

    for seg in _node_trajectory(schedule, 1.0, 1e-11, 1e-13):
        half = (seg.hi - seg.lo) / 2.0
        alphadot = derivative(-seg.om / seg.de, half)
        yield seg, alphadot, derivative(alphadot / seg.de, half) / seg.de


@dataclass(frozen=True)
class AdiabaticGateAngle:
    """Gate angle estimate int (Omega^2 + alpha_dot^2)/delta dt and its leading term."""

    total: float
    leading: float


def gate_angle_adiabatic(schedule: PulseSchedule) -> AdiabaticGateAngle:
    """Adiabatic-following estimate of the gate angle for the |s|=2 branch.

    Valid for smooth schedules; a warning is emitted when the peak
    adiabaticity metric exceeds ``ADIABATICITY_WARN`` since the estimate
    is then untrusted.  Both the full integrand (Omega^2 + alpha_dot^2)/
    delta and the leading Omega^2/delta term are reported, with the sign
    of delta preserved.  Both are Clenshaw-Curtis sums on the kernel's
    panels, which also give the metric's peak.
    """
    total = leading = peak = 0.0
    for seg, alphadot, metric in _following(schedule):
        leading += float(np.sum(seg.weights * seg.om ** 2 / seg.de))
        total += float(np.sum(seg.weights * (seg.om ** 2 + alphadot ** 2) / seg.de))
        peak = max(peak, float(np.max(np.abs(metric))))
    if peak > ADIABATICITY_WARN:
        warnings.warn(f"adiabaticity metric peak {peak:.3g} exceeds {ADIABATICITY_WARN}; "
                      "adiabatic gate-angle estimate untrusted", stacklevel=2)
    return AdiabaticGateAngle(total=total, leading=leading)


@dataclass(frozen=True)
class AdiabaticityProfile:
    """Adiabatic-following metric d(beta)/dt / delta at the panel nodes of a schedule."""

    t: np.ndarray = field(repr=False)
    metric: np.ndarray = field(repr=False)
    peak: float = 0.0


def adiabaticity_profile(schedule: PulseSchedule) -> AdiabaticityProfile:
    """Evaluate the dimensionless adiabaticity metric along a schedule.

    The displaced-frame expansion parameter is alpha = -Omega/delta and
    beta = (d alpha/dt)/delta; following is adiabatic when |d beta/dt| is
    small against |delta|.  Derivatives are spectral on the kernel's panels
    of each closed-form segment separately, so the piecewise joins do not
    pollute the estimate; ``t`` holds every panel's nodes, so panel and
    segment joins appear twice.  For pure amplitude ramps the metric
    reduces to -(d^2 Omega/dt^2)/delta^3, for pure detuning ramps to
    Omega*(delta'' * delta - 3*delta'^2)/delta^5.
    """
    rows = [(seg.t.ravel(), metric.ravel()) for seg, _, metric in _following(schedule)]
    t, metric = (np.concatenate(col) for col in zip(*rows))
    return AdiabaticityProfile(t=t, metric=metric, peak=float(np.max(np.abs(metric))))


def _gate_angle(use: str, **solver_kwargs) -> Callable[[PulseSchedule], float]:
    """|theta_g| of a schedule from the exact kernel or the adiabatic estimate."""
    if use == "adiabatic":
        return lambda sched: abs(gate_angle_adiabatic(sched).total)
    if use == "exact":
        return lambda sched: abs(gate_angle_exact(sched, **solver_kwargs))
    raise ParameterError("use must be 'adiabatic' or 'exact'")


def calibrate_omega(p: SmoothGateParams, use: str = "adiabatic",
                    **solver_kwargs) -> SmoothGateParams:
    """Solve for Omega_g so the smooth gate accumulates |theta_g| = pi/2.

    Both the exact and adiabatic gate angles scale as Omega_g^2 for a
    fixed schedule shape (eta does not involve Omega), so a single
    unit-amplitude evaluation suffices.  The adiabaticity metric is linear
    in Omega_g, so the unit-amplitude probe never warns; with
    ``use="adiabatic"`` the solved gate is judged once more.
    """
    angle = _gate_angle(use, **solver_kwargs)
    coeff = angle(build_smooth_schedule(replace(p, omega_g=1.0)))
    if coeff <= 0:
        raise ConvergenceError("gate angle coefficient vanished")
    solved = replace(p, omega_g=math.sqrt(math.pi / 2 / coeff))
    if use == "adiabatic":
        gate_angle_adiabatic(build_smooth_schedule(solved))
    return solved


def calibrate_delta_min(p: SmoothGateParams, use: str = "exact",
                        **solver_kwargs) -> SmoothGateParams:
    """Solve for |delta_min| at fixed Omega_g so that |theta_g| = pi/2.

    The angle grows monotonically as |delta_min| shrinks; brentq brackets
    on |delta_min| from 2*pi*1 kHz up to 0.9*|delta_max|.
    """
    lo, hi = TWO_PI * 1e3, 0.9 * abs(p.delta_max)
    angle = _gate_angle(use, **solver_kwargs)

    def f(absdm: float) -> float:
        sched = build_smooth_schedule(replace(p, delta_min=p.sign * absdm))
        # trial points far from the root routinely violate the adiabaticity
        # threshold; only the solution is judged below
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return angle(sched) - math.pi / 2

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ConvergenceError(
            f"target angle {math.pi / 2:.4g} not bracketed: theta({lo:.4g})-target={flo:.3g}, "
            f"theta({hi:.4g})-target={fhi:.3g}")
    from scipy.optimize import brentq  # loaded on use: ~20 MB resident

    root = brentq(f, lo, hi, rtol=1e-12)
    solved = replace(p, delta_min=p.sign * root)
    if use == "adiabatic":
        gate_angle_adiabatic(build_smooth_schedule(solved))
    return solved


# ---------------------------------------------------------------------------
# spin algebra of the two-qubit collective operator

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def collective_spin_operator(phi: float = 0.0) -> np.ndarray:
    """S_phi = sigma_phi(1) + sigma_phi(2) on the basis (uu, ud, du, dd)."""
    sp = math.cos(phi) * _SIGMA_X + math.sin(phi) * _SIGMA_Y
    return np.kron(sp, _ID2) + np.kron(_ID2, sp)


@dataclass(frozen=True)
class SpinStateVariances:
    """Moments of S_alpha in the initial spin state entering the error formulas."""

    mean_s: float
    mean_s2: float
    var_s: float
    var_s2: float

    def __post_init__(self):
        if self.var_s < -1e-12 or self.var_s2 < -1e-12:
            raise ParameterError("variances must be non-negative")


def spin_variances(psi0: Sequence[complex], phi: float = 0.0) -> SpinStateVariances:
    """Variances of S_phi and S_phi^2 in a normalized two-qubit state."""
    psi = np.asarray(psi0, dtype=complex).reshape(4)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ParameterError(f"spin state norm {norm} is not 1")
    s_op = collective_spin_operator(phi)
    s1 = psi.conj() @ (s_op @ psi)
    s2_vec = s_op @ (s_op @ psi)
    s2 = psi.conj() @ s2_vec
    s4 = s2_vec.conj() @ s2_vec
    mean_s, mean_s2, mean_s4 = float(s1.real), float(s2.real), float(s4.real)
    return SpinStateVariances(mean_s=mean_s, mean_s2=mean_s2,
                              var_s=max(mean_s2 - mean_s ** 2, 0.0),
                              var_s2=max(mean_s4 - mean_s2 ** 2, 0.0))


# ---------------------------------------------------------------------------
# perturbative infidelity from a mode-frequency error epsilon(t)


@dataclass(frozen=True)
class PerturbativeInfidelity:
    """First-order error response to a mode-frequency error epsilon(t).

    ``residual_displacement`` is alpha_t = int eps*gamma dt and
    ``gate_angle_error`` is delta_theta = 2*int eps*|gamma|^2 dt on the unit
    branch; the total combines them with the initial spin moments.
    """

    residual_displacement: complex
    gate_angle_error: float
    displacement: float
    angle: float
    total: float


def perturbative_infidelity(schedule: PulseSchedule,
                            eps: float | Callable[[np.ndarray], np.ndarray],
                            variances: SpinStateVariances,
                            nbar: float = 0.0) -> PerturbativeInfidelity:
    """Leading-order infidelity of a schedule under a mode-frequency error eps(t).

    ``eps`` (rad/s) is a constant or a callable of an array of schedule
    times.  Both integrals are Clenshaw-Curtis sums at the nodes of the
    kernel's panels, which must resolve eps as they resolve Omega and delta:
    on every panel the last two Chebyshev coefficients of eps stay within
    1e-11 times its largest magnitude on the segment plus 1e-13/duration,
    else :class:`ConvergenceError`.
    """
    if nbar < 0:
        raise ParameterError("nbar must be >= 0")
    alpha_t, dtheta = 0j, 0.0
    for seg, piece in zip(_node_trajectory(schedule, 1.0, 1e-11, 1e-13), schedule.segments):
        e = np.broadcast_to(np.asarray(eps(seg.t) if callable(eps) else eps, dtype=float),
                            seg.t.shape)
        tail = np.max(np.abs(e @ _TO_COEF[-2:].T))
        if tail > 1e-11 * np.max(np.abs(e)) + 1e-13 / piece.duration:
            raise ConvergenceError(f"segment {piece.label or '?'}: eps not resolved by the "
                                   f"kernel's panels (Chebyshev tail {tail:.3g})")
        alpha_t += complex(np.sum(seg.weights * e * seg.gamma))
        dtheta += 2.0 * float(np.sum(seg.weights * e * np.abs(seg.gamma) ** 2))
    disp = (2.0 * nbar + 1.0) * abs(alpha_t) ** 2 * variances.var_s
    ang = dtheta ** 2 / 4.0 * variances.var_s2
    return PerturbativeInfidelity(residual_displacement=alpha_t, gate_angle_error=dtheta,
                                  displacement=disp, angle=ang, total=disp + ang)
