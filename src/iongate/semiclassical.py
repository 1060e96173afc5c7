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
that :func:`propagate_displacement`, :func:`perturbative_infidelity` and
the filter function's sums read.  The gate angle comes from this kernel
alone: :func:`gate_angle_exact`, which the calibrations solve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConvergenceError, GridError, ParameterError, check_nbar
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

# Fourier sums take frequencies in blocks of this many, which keeps their
# (block, nodes) cos and sin arrays small, on sub-panels of at most this
# phase of omega*t, where 16 nodes reach about J_16(2) ~ 5e-14.
_FOURIER_BLOCK = 8
_FOURIER_PHASE = 4.0


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
    """Nodes on [-1, 1], values-to-coefficients and cumulative-integral matrices.

    ``cumint @ f`` gives int_{-1}^{x_k} p(x) dx at every node for the
    interpolant p of the node values f.
    """
    cheb = np.polynomial.chebyshev
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    to_coef = np.linalg.inv(cheb.chebvander(x, n - 1))
    antider = cheb.chebint(np.eye(n), lbnd=-1.0)
    cumint = cheb.chebval(x, antider).T @ to_coef
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] /= 2.0
    return x, to_coef, cumint, weights


_X, _TO_COEF, _CUMINT, _BARY = _chebyshev_lobatto(PANEL_NODES)


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
# Clenshaw-Curtis weights, eta, gamma and theta.
_Nodes = namedtuple("_Nodes", "lo hi t weights eta gamma theta")


def _node_trajectory(schedule: PulseSchedule, s: float, rtol: float, atol: float) -> list[_Nodes]:
    """One branch along the schedule at the nodes of the kernel's panels, per segment."""
    zero = np.zeros(1)
    panels = [_panels(seg, zero, rtol, atol) for seg in schedule.segments]
    nodes = []
    for start, (lo, hi, _, _), (gamma, eta, theta) in zip(schedule.boundaries, panels,
                                                          _sweep(panels, zero, s)):
        half = ((hi - lo) / 2.0)[:, None]
        t = start + ((lo + hi) / 2.0)[:, None] + half * _X
        nodes.append(_Nodes(lo, hi, t, _CUMINT[-1] * half, eta[0], gamma[0], theta[0]))
    return nodes


def branch_endpoints(schedule: PulseSchedule, offsets, rtol: float = 1e-11, atol: float = 1e-13):
    """gamma, theta and eta at the end of the +2 branch under each static offset.

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
        for gamma, eta, theta in _sweep(panels, offs[block], 2.0):
            pass
        gamma_end[block], theta_end[block], eta_end[block] = \
            gamma[:, -1, -1], theta[:, -1, -1], eta[:, -1, -1]
    return gamma_end, theta_end, eta_end


def propagate_displacement(schedule: PulseSchedule, branch_eigenvalue: float = 1.0,
                           t_eval: np.ndarray | None = None,
                           rtol: float = 1e-11) -> BranchTrajectory:
    """Integrate eta, gamma and theta for one spin branch along a schedule.

    Each segment is cut into panels of at most 1 rad of phase budget
    int max(|delta|, |Omega|) dt, each carrying ``PANEL_NODES``
    Chebyshev-Lobatto nodes, and bisected until the trailing Chebyshev
    coefficients of Omega and delta fall below ``rtol`` (floored at 100
    machine epsilons) times their scale on the segment plus
    1e-13/duration; an unresolved segment raises
    :class:`ConvergenceError`.  The node values are interpolated onto the
    output times per panel (barycentric, exact at the nodes).

    The default output grid resolves the fastest detuning period of each
    segment by ``GRID_POINTS_PER_PERIOD`` points; a user-supplied
    ``t_eval`` must pass :func:`check_output_grid`.
    """
    locals_per_seg = ([_segment_grid(seg) for seg in schedule.segments] if t_eval is None
                      else check_output_grid(schedule, t_eval))
    ts, cols = [], []
    nodes = _node_trajectory(schedule, float(branch_eigenvalue), rtol, 1e-13)
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
    _, theta, _ = branch_endpoints(schedule, [0.0], **solver_kwargs)
    return float(theta[0])


def _gate_angle(use: str, **solver_kwargs) -> Callable[[PulseSchedule], float]:
    """|theta_g| of a schedule from the exact kernel, the only route ``use`` may name."""
    if use != "exact":
        raise ParameterError("use must be 'exact'")
    return lambda sched: abs(gate_angle_exact(sched, **solver_kwargs))


def calibrate_omega(p: SmoothGateParams, use: str = "exact",
                    **solver_kwargs) -> SmoothGateParams:
    """Solve for Omega_g so the smooth gate accumulates |theta_g| = pi/2.

    The exact gate angle scales as Omega_g^2 for a fixed schedule shape
    (eta does not involve Omega), so a single unit-amplitude evaluation
    suffices.  ``use`` names the gate-angle route and must be "exact".
    """
    angle = _gate_angle(use, **solver_kwargs)
    coeff = angle(build_smooth_schedule(replace(p, omega_g=1.0)))
    if coeff <= 0:
        raise ConvergenceError("gate angle coefficient vanished")
    return replace(p, omega_g=math.sqrt(math.pi / 2 / coeff))


def _bracketed_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f between lo and hi to a relative 1e-12, by Illinois regula falsi.

    Each secant point c replaces b.  If f(c) has the sign of f(b), a is
    kept again and its f is halved, so that both ends close in (Dowell &
    Jarratt, BIT 11, 168, 1971).  Raises :class:`ConvergenceError` if f(lo)
    and f(hi) share a sign, or after 100 steps.
    """
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa * fb > 0:
        raise ConvergenceError(f"root not bracketed: f(lo) = {fa:.3g}, f(hi) = {fb:.3g}")
    for _ in range(100):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = c, fc
        if fc == 0 or abs(b - a) <= 1e-12 * abs(b):
            return b
    raise ConvergenceError(f"root not converged in 100 steps, bracket [{a:.6g}, {b:.6g}]")


def calibrate_delta_min(p: SmoothGateParams, use: str = "exact",
                        **solver_kwargs) -> SmoothGateParams:
    """Solve for |delta_min| at fixed Omega_g so that |theta_g| = pi/2.

    The search interval is |delta_min| from 2*pi*1 kHz to 0.9*|delta_max|,
    a :class:`ParameterError` if that is empty.  The angle grows
    monotonically as |delta_min| shrinks, and nearly linearly in
    u = 1/|delta_min|, so :func:`_bracketed_root` solves in u: about a
    dozen kernel calls, the two ends included.
    """
    lo, hi = TWO_PI * 1e3, 0.9 * abs(p.delta_max)
    if not lo < hi:
        raise ParameterError(f"|delta_min| is searched from 2*pi*1 kHz to 0.9*|delta_max| = "
                             f"2*pi*{hi / TWO_PI / 1e3:.4g} kHz, an empty interval")
    angle = _gate_angle(use, **solver_kwargs)

    def f(u: float) -> float:
        return angle(build_smooth_schedule(replace(p, delta_min=p.sign / u))) - math.pi / 2

    try:
        u = _bracketed_root(f, 1 / hi, 1 / lo)
    except ConvergenceError as exc:
        raise ConvergenceError(f"target angle pi/2 with |delta_min| from {hi:.4g} to {lo:.4g} "
                               f"rad/s, f = |theta_g| - pi/2: {exc}") from None
    return replace(p, delta_min=p.sign / u)


# ---------------------------------------------------------------------------
# perturbative infidelity from a mode-frequency error epsilon(t)


# Var S_phi and Var S_phi^2 of the |up,up> input, the same at every phi.
_UU_VARIANCES = (2.0, 4.0)


@dataclass(frozen=True)
class PerturbativeInfidelity:
    """First-order error response to a mode-frequency error epsilon(t).

    ``residual_displacement`` is alpha_t = int eps*gamma dt and
    ``gate_angle_error`` is delta_theta = 2*int eps*|gamma|^2 dt on the unit
    branch; the total weights them with the |up,up> spin variances.
    """

    residual_displacement: complex
    gate_angle_error: float
    displacement: float
    angle: float

    @property
    def total(self) -> float:
        return self.displacement + self.angle


def perturbative_infidelity(schedule: PulseSchedule,
                            eps: float | Callable[[np.ndarray], np.ndarray],
                            nbar: float = 0.0) -> PerturbativeInfidelity:
    """Leading-order infidelity of the |up,up> input under a mode-frequency error eps(t).

    ``eps`` (rad/s) is a constant or a callable of an array of schedule
    times.  Both integrals are Clenshaw-Curtis sums at the nodes of the
    kernel's panels, which must resolve eps as they resolve Omega and delta:
    on every panel the last two Chebyshev coefficients of eps stay within
    1e-11 times its largest magnitude on the segment plus 1e-13/duration,
    else :class:`ConvergenceError`.
    """
    check_nbar(nbar)
    alpha_t, dtheta = 0j, 0.0
    for seg, piece in zip(_node_trajectory(schedule, 1.0, 1e-11, 1e-13), schedule.segments):
        e = np.broadcast_to(np.asarray(eps(seg.t) if callable(eps) else eps, dtype=float),
                            seg.t.shape)
        if not np.all(np.isfinite(e)):
            raise ParameterError(f"segment {piece.label or '?'}: eps must be finite")
        tail = np.max(np.abs(e @ _TO_COEF[-2:].T))
        if tail > 1e-11 * np.max(np.abs(e)) + 1e-13 / piece.duration:
            raise ConvergenceError(f"segment {piece.label or '?'}: eps not resolved by the "
                                   f"kernel's panels (Chebyshev tail {tail:.3g})")
        alpha_t += complex(np.sum(seg.weights * e * seg.gamma))
        dtheta += 2.0 * float(np.sum(seg.weights * e * np.abs(seg.gamma) ** 2))
    var_s, var_s2 = _UU_VARIANCES
    disp = (2.0 * nbar + 1.0) * abs(alpha_t) ** 2 * var_s
    ang = dtheta ** 2 / 4.0 * var_s2
    return PerturbativeInfidelity(residual_displacement=alpha_t, gate_angle_error=dtheta,
                                  displacement=disp, angle=ang)


def _fourier_sums(schedule: PulseSchedule, omega: np.ndarray, rtol: float, atol: float):
    """A_c,s = int cos/sin(omega*t)*gamma dt and T_c,s with |gamma|^2, unit branch.

    Clenshaw-Curtis sums on the fewest equal sub-panels of each kernel panel
    that keep ``_FOURIER_PHASE`` rad of omega*t at the top of each block of
    ascending ``omega``; gamma is interpolated onto their nodes.
    """
    nodes = _node_trajectory(schedule, 1.0, rtol, atol)
    sums, m = [], None
    for start in range(0, omega.size, _FOURIER_BLOCK):
        blk = slice(start, start + _FOURIER_BLOCK)
        m_blk = [np.ceil((seg.hi - seg.lo) * omega[blk][-1] / _FOURIER_PHASE).astype(int).clip(1)
                 for seg in nodes]
        if m is None or not all(map(np.array_equal, m, m_blk)):
            m, cols = m_blk, []
            for seg, t0, mk in zip(nodes, schedule.boundaries, m):
                k = np.repeat(np.arange(mk.size), mk)
                j = np.arange(k.size) - np.repeat(np.cumsum(mk) - mk, mk)
                half = ((seg.hi - seg.lo) / mk / 2.0)[k, None]
                u = (seg.lo[k, None] + (2 * j[:, None] + 1) * half + half * _X).ravel()
                cols.append((t0 + u, (_CUMINT[-1] * half).ravel(),
                             _interpolate(seg.lo, seg.hi, (seg.gamma,), u)[0]))
            t, w, g = (np.concatenate(col) for col in zip(*cols))
            wg, wg2 = w * g, w * np.abs(g) ** 2
        phase = omega[blk, None] * t
        c, s = np.cos(phase), np.sin(phase)
        sums.append((c @ wg, s @ wg, c @ wg2, s @ wg2))
    return tuple(np.concatenate(col) for col in zip(*sums))
