"""Pulse schedules for two-ion geometric-phase gates.

A gate drive is described by an amplitude envelope Omega(t), a detuning
delta(t) of the drive from the motional mode, and a drive-phase sign that
implements Walsh modulation.  Two families are supported:

* smooth gates: Omega is ramped up at large detuning, the detuning is then
  ramped down towards the gate value and back while the spin-dependent force
  follows adiabatically, and Omega is ramped off again at large detuning;
* Walsh gates: constant Omega and delta, with the drive phase flipped by pi
  at loop-closure times according to a Walsh sequence.

All frequencies are angular (rad/s) and all times are in seconds.  Schedules
are immutable piecewise collections of closed-form segments; integrators
sample them on demand, there is no fixed global grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParameterError

TWO_PI = 2.0 * math.pi

# Relative slack allowed when evaluating at a domain boundary, so that
# t = duration produced by floating-point accumulation does not raise.
_EDGE_TOL = 1e-9


def _as_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class SmoothGateParams:
    """Parameters of the five-step smooth gate.

    Attributes
    ----------
    delta_max, delta_min : float
        Signed angular detunings (rad/s) at the start and bottom of the
        detuning ramp.  Both must carry the same sign and satisfy
        ``|delta_min| < |delta_max|``.
    omega_g : float
        Angular Rabi frequency of the gate drive (rad/s), > 0.
    tau_g : float
        Duration of each sin^2 amplitude ramp (s).
    tau_d : float
        Duration of each detuning ramp (s).
    t_c : float
        Constant hold time at ``delta_min`` (s), >= 0.
    j : int
        Positive exponent of the detuning ramp shape; larger values
        concentrate dwell time near ``delta_min``.
    merge_ramps : bool
        Run the amplitude ramps concurrently with the start and end of the
        detuning ramps (requires ``tau_g <= tau_d``), shortening the gate
        to ``2*tau_d + t_c``.
    """

    delta_max: float
    delta_min: float
    omega_g: float
    tau_g: float
    tau_d: float
    t_c: float = 0.0
    j: int = 3
    merge_ramps: bool = False

    def __post_init__(self):
        if not (self.tau_g > 0 and self.tau_d > 0):
            raise ParameterError("tau_g and tau_d must be positive")
        if self.t_c < 0:
            raise ParameterError("t_c must be >= 0")
        if self.omega_g <= 0:
            raise ParameterError("omega_g must be positive")
        if self.j < 1 or int(self.j) != self.j:
            raise ParameterError("j must be a positive integer")
        if self.delta_max == 0 or self.delta_min == 0:
            raise ParameterError("detunings must be nonzero")
        if math.copysign(1.0, self.delta_max) != math.copysign(1.0, self.delta_min):
            raise ParameterError("delta_max and delta_min must share a sign")
        if not abs(self.delta_min) < abs(self.delta_max):
            raise ParameterError("|delta_min| must be smaller than |delta_max|")
        if self.merge_ramps and self.tau_g > self.tau_d:
            raise ParameterError("merged ramps require tau_g <= tau_d")

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.delta_max)

    @property
    def duration(self) -> float:
        if self.merge_ramps:
            return 2 * self.tau_d + self.t_c
        return 2 * self.tau_g + 2 * self.tau_d + self.t_c

    def with_delta_min(self, delta_min: float) -> "SmoothGateParams":
        return replace(self, delta_min=delta_min)


@dataclass(frozen=True)
class WalshGateParams:
    """Parameters of a Walsh-modulated constant-detuning gate.

    ``loops`` is the number K of phase-space loops (a power of two); the
    drive sign on loop m is the Walsh function of order K-1 evaluated at m.
    """

    loops: int
    delta_g: float
    omega_g: float

    def __post_init__(self):
        k = self.loops
        if k < 1 or (k & (k - 1)) != 0:
            raise ParameterError("loops must be a power of two")
        if self.delta_g == 0:
            raise ParameterError("delta_g must be nonzero")
        if self.omega_g <= 0:
            raise ParameterError("omega_g must be positive")

    @property
    def loop_time(self) -> float:
        """Duration 2*pi/|delta_g| of a single closed loop."""
        return TWO_PI / abs(self.delta_g)

    @property
    def duration(self) -> float:
        return self.loops * self.loop_time

    @property
    def walsh_order(self) -> int:
        return self.loops - 1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(walsh_function(self.walsh_order, m) for m in range(self.loops))

    @classmethod
    def calibrated(cls, loops: int, omega_g: float) -> "WalshGateParams":
        """Gate calibrated to theta_g = -pi/2: delta_g = -2*omega_g*sqrt(K).

        With theta_g = 2*pi*K*omega_g^2/delta_g^2 per closed loop sequence,
        the maximally entangling condition fixes |delta_g| and hence
        t_g = pi*sqrt(K)/omega_g.
        """
        return cls(loops=loops, delta_g=-2.0 * omega_g * math.sqrt(loops), omega_g=omega_g)


def walsh_function(order: int, m: int) -> int:
    """Walsh function of the given order at loop index m, in {+1, -1}.

    Orders used for K-loop gates are K-1 with K a power of two; the sign
    pattern is +1 for even and -1 for odd parity of ``order & m``:
    order 0 -> [+1], order 1 -> [+1, -1], order 3 -> [+1, -1, -1, +1].
    """
    k = order + 1
    if order < 0 or (k & (k - 1)) != 0:
        raise ParameterError("order must be K-1 with K a power of two")
    if not 0 <= m < k:
        raise IndexError(f"loop index {m} outside [0, {k})")
    return -1 if bin(order & m).count("1") % 2 else 1


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin(x) for x >= 0, from its Taylor series where it cancels (x < 1)."""
    x2 = x * x
    s = np.ones_like(x)
    for m in range(19, 3, -2):
        s = 1.0 - x2 / (m * (m - 1)) * s
    return np.where(x < 1.0, x * x2 / 6.0 * s, x - np.sin(x))


def _ramp_magnitude(tau_d: float, abs_max: float, abs_min: float, j: int, t: np.ndarray) -> np.ndarray:
    """|delta| = (b + c*g(t))^(-1/j) on the down ramp, |delta_max| at t=0 to |delta_min| at tau_d.

    g(t) = t/2 - (tau_d/4pi)*sin(2*pi*t/tau_d), b = |delta_max|^(-j) and
    c = (2/tau_d)*(|delta_min|^(-j) - |delta_max|^(-j)) make delta and its
    first derivative continuous at the ramp boundaries.
    """
    b = abs_max ** (-j)
    c = (2.0 / tau_d) * (abs_min ** (-j) - abs_max ** (-j))
    g = (tau_d / (2.0 * TWO_PI)) * _x_minus_sin(TWO_PI * t / tau_d)
    return (b + c * g) ** (-1.0 / j)


def eval_amplitude_ramp(tau_g: float, omega_g: float, t, direction: str = "up") -> np.ndarray | float:
    """sin^2 amplitude ramp between 0 and omega_g over [0, tau_g]."""
    if direction not in ("up", "down"):
        raise ParameterError("direction must be 'up' or 'down'")
    if tau_g <= 0:
        raise ParameterError("tau_g must be positive")
    arr, scalar = _as_array(t)
    tol = _EDGE_TOL * tau_g
    if np.any(arr < -tol) or np.any(arr > tau_g + tol):
        raise DomainError("ramp time outside [0, tau_g]")
    arr = np.clip(arr, 0.0, tau_g)
    if direction == "down":
        arr = tau_g - arr
    out = omega_g * np.sin(np.pi * arr / (2.0 * tau_g)) ** 2
    return float(out) if scalar else out


@dataclass(frozen=True)
class Segment:
    """One closed-form piece of a schedule, evaluated in local time.

    ``omega`` and ``delta`` map local time u in [0, duration] to rad/s;
    ``sign`` is the Walsh drive sign (+1 or -1, a drive-phase offset of 0 or
    pi).  ``const_omega``/``const_delta`` are set when the corresponding
    function is constant, which lets propagators take exact steps.
    """

    duration: float
    omega: Callable[[np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray], np.ndarray]
    sign: float = 1.0
    const_omega: float | None = None
    const_delta: float | None = None
    label: str = ""

    def __post_init__(self):
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ParameterError("segment duration must be positive and finite")
        if self.sign not in (1.0, -1.0, 1, -1):
            raise ParameterError("segment sign must be +1 or -1")

    @property
    def is_constant(self) -> bool:
        return self.const_omega is not None and self.const_delta is not None

    def max_abs_delta(self) -> float:
        if self.const_delta is not None:
            return abs(self.const_delta)
        u = np.linspace(0.0, self.duration, 65)
        return float(np.max(np.abs(self.delta(u))))

    def phase_edges(self, pieces_per_period: float, min_pieces: int = 1) -> np.ndarray:
        """Cut points at equal increments of the phase budget int max(|delta|, |Omega|) du.

        Each piece spans at most 2*pi/``pieces_per_period`` rad of the
        budget (trapezoid rule on 2049 samples); a segment with zero
        budget is one piece.
        """
        u = np.linspace(0.0, self.duration, 2049)
        rate = np.maximum(np.abs(self.delta(u)), np.abs(self.omega(u)))
        budget = np.concatenate(([0.0], np.cumsum((rate[1:] + rate[:-1]) / 2.0 * np.diff(u))))
        if budget[-1] == 0.0:
            return np.array([0.0, self.duration])
        n = max(min_pieces, int(np.ceil(budget[-1] * pieces_per_period / (2.0 * np.pi))))
        return np.interp(np.linspace(0.0, budget[-1], n + 1), budget, u)

    def shifted(self, offset: float) -> "Segment":
        """Copy with a constant added to the detuning."""
        if self.const_delta is not None:
            new_delta = self.const_delta + offset
            return replace(self, delta=lambda u, v=new_delta: np.full_like(np.asarray(u, dtype=float), v),
                           const_delta=new_delta)
        old = self.delta
        return replace(self, delta=lambda u, f=old, d=offset: f(u) + d, const_delta=None)


def _const_fn(value: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda u, v=value: np.full_like(np.asarray(u, dtype=float), v)


class PulseSchedule:
    """Immutable ordered collection of :class:`Segment` pieces.

    Omega and delta must be continuous across segment joins; smooth-gate
    schedules additionally begin and end with Omega = 0.  Evaluation is
    pure and safe to share across threads.
    """

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise ParameterError("schedule needs at least one segment")
        self.segments = tuple(segments)
        bounds = np.concatenate(([0.0], np.cumsum([s.duration for s in self.segments])))
        self.boundaries = bounds
        self.duration = float(bounds[-1])
        self._check_continuity()

    def _check_continuity(self):
        scale_o = max(abs(s.omega(np.array([0.0]))[0]) for s in self.segments) + 1.0
        for left, right in zip(self.segments[:-1], self.segments[1:]):
            o_l = float(left.omega(np.array([left.duration]))[0])
            o_r = float(right.omega(np.array([0.0]))[0])
            d_l = float(left.delta(np.array([left.duration]))[0])
            d_r = float(right.delta(np.array([0.0]))[0])
            if abs(o_l - o_r) > 1e-9 * scale_o:
                raise ParameterError(f"Omega discontinuous at segment join ({o_l} vs {o_r})")
            if abs(d_l - d_r) > 1e-9 * (abs(d_l) + abs(d_r) + 1.0):
                raise ParameterError(f"delta discontinuous at segment join ({d_l} vs {d_r})")

    def _locate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tol = _EDGE_TOL * self.duration
        if np.any(t < -tol) or np.any(t > self.duration + tol):
            raise DomainError("time outside schedule")
        tc = np.clip(t, 0.0, self.duration)
        idx = np.searchsorted(self.boundaries[1:-1], tc, side="right")
        return idx, tc - self.boundaries[idx]

    def _eval(self, t, attr: str):
        arr, scalar = _as_array(t)
        idx, local = self._locate(np.atleast_1d(arr))
        out = np.empty_like(np.atleast_1d(arr))
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = getattr(seg, attr)(local[m])
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def omega(self, t):
        """Drive amplitude magnitude Omega(t) in rad/s."""
        return self._eval(t, "omega")

    def delta(self, t):
        """Drive detuning delta(t) in rad/s."""
        return self._eval(t, "delta")

    def max_abs_delta(self) -> float:
        return max(s.max_abs_delta() for s in self.segments)

    def with_detuning_offset(self, offset: float) -> "PulseSchedule":
        """New schedule with a constant mode-frequency error added to delta(t)."""
        if not math.isfinite(offset):
            raise ParameterError("detuning offset must be finite")
        return PulseSchedule([s.shifted(offset) for s in self.segments])


def build_smooth_schedule(p: SmoothGateParams) -> PulseSchedule:
    """Assemble the five-step smooth-gate schedule.

    Steps: ramp Omega up at delta_max, ramp delta down to delta_min, hold
    for t_c, ramp delta back up, ramp Omega down.  With ``p.merge_ramps``
    the amplitude ramps run concurrently with the start/end of the
    detuning ramps; each amplitude ramp is then a segment of its own
    (ramp-in, det-down, [hold,] det-up, ramp-out), so that Omega is smooth
    inside every segment.  Zero-length pieces (no hold, or tau_g = tau_d)
    are omitted rather than kept as degenerate segments.
    """
    abs_ramp = lambda u: _ramp_magnitude(p.tau_d, abs(p.delta_max), abs(p.delta_min), p.j, np.asarray(u, dtype=float))
    down = lambda u: p.sign * abs_ramp(u)
    up = lambda u: p.sign * abs_ramp(p.tau_d - np.asarray(u, dtype=float))
    amp_up = lambda u: eval_amplitude_ramp(p.tau_g, p.omega_g, np.asarray(u, dtype=float), "up")
    amp_down = lambda u: eval_amplitude_ramp(p.tau_g, p.omega_g, np.asarray(u, dtype=float), "down")

    full, at_full = _const_fn(p.omega_g), dict(const_omega=p.omega_g)
    hold = (p.t_c, full, _const_fn(p.delta_min), dict(at_full, const_delta=p.delta_min), "hold")
    if p.merge_ramps:
        rest = p.tau_d - p.tau_g
        pieces = [(p.tau_g, amp_up, down, {}, "ramp-in"),
                  (rest, full, lambda u: down(np.add(u, p.tau_g)), at_full, "det-down"),
                  hold,
                  (rest, full, up, at_full, "det-up"),
                  (p.tau_g, amp_down, lambda u: up(np.add(u, rest)), {}, "ramp-out")]
    else:
        at_max = dict(const_delta=p.delta_max)
        pieces = [(p.tau_g, amp_up, _const_fn(p.delta_max), at_max, "amp-up"),
                  (p.tau_d, full, down, at_full, "det-down"),
                  hold,
                  (p.tau_d, full, up, at_full, "det-up"),
                  (p.tau_g, amp_down, _const_fn(p.delta_max), at_max, "amp-down")]
    segs = [Segment(duration, omega, delta, label=label, **const)
            for duration, omega, delta, const, label in pieces if duration > 0]
    return PulseSchedule(segs)


def build_walsh_schedule(p: WalshGateParams) -> PulseSchedule:
    """Constant Omega_g and delta_g with Walsh drive-sign flips at loop closures."""
    segs = [
        Segment(p.loop_time, _const_fn(p.omega_g), _const_fn(p.delta_g), sign=float(w),
                const_omega=p.omega_g, const_delta=p.delta_g, label=f"loop{m}")
        for m, w in enumerate(p.signs)
    ]
    return PulseSchedule(segs)
