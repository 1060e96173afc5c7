"""Randomized benchmarking of entangling gates on the even-parity subspace.

The two states |uu> and |dd> form an effective qubit.  A fully entangling
gate with drive-basis phase phi acts on that qubit as a pi/2 rotation about
an equatorial axis at angle 2*phi, so products of entangling gates in
rotated bases reach the whole 24-element single-qubit Clifford group without
any one-qubit pulses.  Sequences of random Cliffords plus an inverting
Clifford decay towards the subspace-depolarized steady state; leakage to
|ud>, |du> and the in-subspace contrast decay at separate rates which a
two-stage weighted fit extracts.

Decay model, chosen for its exact match to the error channels below and
documented here because no external reference form is assumed:

    in-subspace probability   L(N) = (1 + (1 - 2*eps_leak)^N) / 2
    polarization              c(N) = ((1 - eps_leak) * (1 - 2*eps_rb))^N
    P_survival = (L + c) / 2,  P_flip = (L - c) / 2,  P_leak = 1 - L

with no vertical offset (state preparation and measurement errors are
assumed negligible).  For small rates P_leak ~ N * eps_leak and
P_flip ~ N * eps_rb.

Sequences are integer arithmetic on the group's Cayley table.  A dataset
is simulated in one pass: every sequence is drawn first, then one model
call returns all outcome probabilities.  The parametric model evaluates
its closed form over the array of compiled gate counts; the
full model steps all sequences together as one (sequences, 4, dim) state,
applying one exact gate propagator, at a Fock cutoff sized for the
longest sequence, to every compiled gate.

Bootstrap intervals resample sequences within each length.  Each length
draws its row positions ``RESAMPLE_BLOCK`` resamples at a time; the
per-length fractions and shot totals of every resample are stored (24
bytes per length per resample), and the lengths-major fit refits them
one block at a time, so nothing else grows with the resample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, GridError, ParameterError
from .quantum import (NORM_TOL, BranchPropagators, FockConfig, _guard_state,
                      _max_branch_displacement, gate_eigenbasis, gate_propagator)
from .schedule import PulseSchedule

GATE_ANGLE = -math.pi / 2
GENERATOR_PHASES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
# index of the z (measurement) basis after the generators' eigenbases
Z_BASIS = len(GENERATOR_PHASES)

# Sequences the full model steps together: the state is a (rows, 4, dim)
# array, which this keeps to about a megabyte at the cutoffs of cold ions.
SEQUENCE_BLOCK = 128
# Block entries and amplitudes below this are set to zero while stepping.
# A nearly closed loop leaves the high Fock levels at ~|gamma_end|^n, whose
# products run into subnormal numbers, which slow BLAS tenfold; a
# population of 1e-300 is far below every guard and tolerance.
FLUSH_AMPLITUDE = 1e-150
# Bootstrap resamples drawn, summed and refitted together: the row positions
# are a (block, rows) array and the fit's temporaries (lengths, block)
# arrays, so neither grows with the resample count.  Of 512, 1024 and 2048,
# 1024 ran the bootstrap fastest: smaller blocks add per-call overhead to
# the fit, and larger ones slow the draws.
RESAMPLE_BLOCK = 1024

# per-gate error -> per-Clifford error conversion constant used by the
# standard reporting convention (13/6 entangling gates per Clifford)
GATES_PER_CLIFFORD_REPORTING = 13.0 / 6.0


def logical_gate_unitary(angle: float, basis_phase: float) -> np.ndarray:
    """Action of the entangling gate on the {|uu>, |dd>} qubit.

    Equals exp(i*(angle/2) * (cos(2 phi) sigma_x + sin(2 phi) sigma_y)) up
    to the global phase exp(i*angle/2) inherited from the two-qubit gate.
    """
    half = 0.5 * angle
    off = 1j * math.sin(half)
    u = np.array([
        [math.cos(half), off * np.exp(-2j * basis_phase)],
        [off * np.exp(2j * basis_phase), math.cos(half)],
    ])
    return np.exp(1j * half) * u


def _index_up_to_phase(u: np.ndarray, matrices) -> int | None:
    """Position in ``matrices`` of ``u`` up to phase: |tr(A^dag U)| = |A| |U| iff U = e^{ia} A."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or abs(np.vdot(u, u).real - 2.0) > 1e-9:
        return None
    return next((k for k, a in enumerate(matrices) if abs(np.vdot(a, u)) > 2.0 - 1e-9), None)


@dataclass(frozen=True)
class SubspaceClifford:
    """One element of the effective-qubit Clifford group.

    ``gates`` is the shortest product of entangling gates realizing the
    element: (angle, basis_phase) pairs applied left to right.
    """

    index: int
    matrix: np.ndarray = field(repr=False)
    gates: tuple[tuple[float, float], ...] = ()


@lru_cache(maxsize=1)
def clifford_table() -> tuple[SubspaceClifford, ...]:
    """All 24 subspace Cliffords, breadth-first from the four generators.

    Index 0 is the identity; indices are assigned in discovery order so the
    table is deterministic.  Every element stores a shortest compilation.
    """
    gens = [(GATE_ANGLE, phi) for phi in GENERATOR_PHASES]
    table = [SubspaceClifford(0, np.eye(2, dtype=complex), ())]
    frontier = [table[0]]
    while frontier:
        nxt = []
        for elem in frontier:
            for angle, phase in gens:
                u = logical_gate_unitary(angle, phase) @ elem.matrix
                if _index_up_to_phase(u, [c.matrix for c in table]) is not None:
                    continue
                item = SubspaceClifford(len(table), u, elem.gates + ((angle, phase),))
                table.append(item)
                nxt.append(item)
        frontier = nxt
    if len(table) != 24:
        raise ConvergenceError(f"Clifford closure found {len(table)} elements, expected 24")
    return tuple(table)


def find_clifford(u: np.ndarray) -> int:
    """Index of the Clifford equal to ``u`` up to global phase."""
    k = _index_up_to_phase(u, [c.matrix for c in clifford_table()])
    if k is None:
        raise ParameterError("matrix is not a subspace Clifford")
    return k


@dataclass(frozen=True)
class CliffordGroup:
    """Integer arithmetic on :func:`clifford_table` indices: ``mul[a][b]`` is
    table[a].matrix @ table[b].matrix, ``inv[a]`` the inverse of a,
    ``gate_count[a]`` its compiled length, ``generators[a]`` its compiled
    gates as indices into ``GENERATOR_PHASES``, ``x`` the logical X."""

    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    gate_count: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    x: int

    def compose(self, cliffords: Sequence[int]) -> int:
        """Index of the product of ``cliffords``, applied left to right."""
        p = 0
        for c in cliffords:
            p = self.mul[c][p]
        return p


@lru_cache(maxsize=1)
def clifford_group() -> CliffordGroup:
    """Cayley table, inverses and gate counts of the 24-element group."""
    table = clifford_table()
    mul = tuple(tuple(find_clifford(a.matrix @ b.matrix) for b in table) for a in table)
    return CliffordGroup(mul=mul, inv=tuple(row.index(0) for row in mul),
                         gate_count=tuple(len(c.gates) for c in table),
                         generators=tuple(tuple(GENERATOR_PHASES.index(phase)
                                                for _, phase in c.gates) for c in table),
                         x=find_clifford(np.array([[0.0, 1.0], [1.0, 0.0]])))


def mean_gates_per_clifford() -> float:
    """Average compiled gate count over the 24-element table."""
    count = clifford_group().gate_count
    return sum(count) / len(count)


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class SlerbSequence:
    """A benchmarking sequence: random Cliffords plus the computed inverse."""

    cliffords: tuple[int, ...]
    inverter: int
    expected_state: str

    @property
    def total_gates(self) -> int:
        count = clifford_group().gate_count
        return sum(count[c] for c in self.cliffords) + count[self.inverter]


def _rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def generate_sequence(n: int, seed: int, pauli_randomize: bool = True) -> SlerbSequence:
    """Draw ``n`` uniform Cliffords and append the inverting element.

    With ``pauli_randomize`` the inverter absorbs a logical X half the time,
    so the expected outcome is |dd> instead of |uu>.
    """
    if n < 1:
        raise ParameterError("sequence length must be >= 1")
    group = clifford_group()
    rng = _rng(seed)
    draws = tuple(rng.integers(0, len(group.inv), size=n).tolist())
    inverter = group.inv[group.compose(draws)]
    expected = "uu"
    if pauli_randomize and rng.integers(0, 2):
        inverter = group.mul[group.x][inverter]
        expected = "dd"
    return SlerbSequence(cliffords=draws, inverter=inverter, expected_state=expected)


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ParametricModel:
    """Per-gate depolarizing and leak channels on the effective qubit.

    ``eps_rb`` and ``eps_leak`` are per-Clifford rates; at zero rates the
    gates are noise-free.  Each compiled gate
    carries the per-gate share: contrast factor (1-2r) = (1-2 eps_rb)^(1/g)
    and symmetric subspace<->leak exchange q with (1-2q) = (1-2 eps_leak)^(1/g),
    where g is the table-average gate count per Clifford.  Both channels
    commute with the ideal unitaries, so a Clifford compiled into m gates
    applies them m times.  The inverter is error-free, matching the
    offset-free decay model.
    """

    eps_rb: float
    eps_leak: float

    def __post_init__(self):
        if not 0.0 <= self.eps_rb < 0.5:
            raise ParameterError("eps_rb must lie in [0, 0.5)")
        if not 0.0 <= self.eps_leak < 0.5:
            raise ParameterError("eps_leak must lie in [0, 0.5)")

    def per_gate_rates(self) -> tuple[float, float]:
        g = mean_gates_per_clifford()
        r = 0.5 * (1.0 - (1.0 - 2.0 * self.eps_rb) ** (1.0 / g))
        q = 0.5 * (1.0 - (1.0 - 2.0 * self.eps_leak) ** (1.0 / g))
        return r, q


@dataclass(frozen=True)
class FullScheduleModel:
    """Drive every compiled gate through the exact quantum propagator.

    The schedule must be calibrated to a gate angle of -pi/2 or +pi/2: the
    +pi/2 generators are the -pi/2 ones conjugated by Z, which fixes |uu>
    and the z readout.  One set of :func:`gate_propagator` blocks, built
    once per Fock cutoff, serves all four generator bases.  The mode starts
    in |0>.
    """

    schedule: PulseSchedule

    @cached_property
    def _blocks_by_dim(self) -> dict[int, BranchPropagators]:
        return {}

    def blocks(self, max_gates: int) -> BranchPropagators:
        """Branch blocks at the ``FockConfig.auto`` cutoff for sequences of up
        to ``max_gates`` compiled gates, built once per dim."""
        fock = FockConfig.auto(0.0, _max_branch_displacement(self.schedule, max_gates))
        if fock.dim not in self._blocks_by_dim:
            self._blocks_by_dim[fock.dim] = gate_propagator(self.schedule, fock)
        return self._blocks_by_dim[fock.dim]

    def spin_populations(self, seqs: Sequence[SlerbSequence]) -> np.ndarray:
        """(uu, ud, du, dd) populations at the end of each compiled sequence, (rows, 4).

        The cutoff is sized for the longest sequence.  Rows are stepped
        longest first, ``SEQUENCE_BLOCK`` at a time.
        """
        gens = clifford_group().generators
        gates = [[g for c in seq.cliffords + (seq.inverter,) for g in gens[c]] for seq in seqs]
        counts = np.array([len(g) for g in gates], dtype=int)
        props = self.blocks(int(counts.max(initial=0)))
        order = np.argsort(-counts, kind="stable")
        pops = np.empty((len(seqs), 4))
        for start in range(0, order.size, SEQUENCE_BLOCK):
            rows = order[start:start + SEQUENCE_BLOCK]
            pops[rows] = _step_sequences(props, [gates[r] for r in rows])
        return pops


@lru_cache(maxsize=1)
def _basis_changes() -> np.ndarray:
    """(5, 5, 4, 4) rotations: [a, b] takes a state from basis a to basis b.

    Bases 0-3 are the S_phi eigenbases of the generators, ``Z_BASIS`` the
    measurement basis.
    """
    bases = np.stack([gate_eigenbasis(phi) for phi in GENERATOR_PHASES] + [np.eye(4)])
    return bases[None, :] @ bases[:, None].conj().swapaxes(-1, -2)


def _flush(parts: np.ndarray) -> None:
    parts[np.abs(parts) < FLUSH_AMPLITUDE] = 0.0


def _step_sequences(props: BranchPropagators, gates: list[list[int]]) -> np.ndarray:
    """(rows, 4) z-basis spin populations after each row's generator list.

    Rows must be sorted longest first, so the rows still running at step t
    are the first ones.  Between gates a row stays in its last gate's
    eigenbasis: each step rotates the running rows into the next gate's
    basis with one batched 4x4 product, applies one matmul per branch, and
    guards the norm and the cutoff population of every running row.
    """
    rows, dim = len(gates), props.dim
    lengths = np.array([len(g) for g in gates], dtype=int)
    path = np.full((rows, lengths.max(initial=0) + 1), Z_BASIS)
    for r, g in enumerate(gates):
        path[r, 1:len(g) + 1] = g
    change = _basis_changes()
    blocks_t = np.ascontiguousarray(props.blocks.swapaxes(-1, -2))
    _flush(blocks_t.view(float))
    psi = np.zeros((rows, 4, dim), dtype=complex)
    psi[:, 0, 0] = 1.0
    rotated = np.empty_like(psi)
    running = rows
    for t in range(path.shape[1] - 1):
        while lengths[running - 1] <= t:
            running -= 1
        np.matmul(change[path[:running, t], path[:running, t + 1]], psi[:running],
                  out=rotated[:running])
        for k in range(4):
            np.matmul(rotated[:running, k], blocks_t[k], out=psi[:running, k])
        live = psi[:running].reshape(running, -1).view(float)
        _flush(live)
        _guard_state(np.sqrt(np.einsum("ri,ri->r", live, live)),
                     np.sum(np.abs(psi[:running, :, -1]) ** 2, axis=1))
    amps = change[path[np.arange(rows), lengths], Z_BASIS] @ psi
    return np.sum(np.abs(amps) ** 2, axis=2)


ErrorModel = ParametricModel | FullScheduleModel


def _libm_powers(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** n for integer n through the C library's pow, as Python floats do.

    numpy's SIMD power loop differs from it in the last bit, which would
    change the multinomial draws; the distinct exponents are few.
    """
    powers = {n: base ** n for n in set(exponents.tolist())}
    return np.array([powers[n] for n in exponents.tolist()])


def _closed_form_probabilities(seqs: Sequence[SlerbSequence],
                               model: ParametricModel) -> np.ndarray:
    """(P_expected, P_flip, P_leak) per sequence from the compiled gate counts.

    Both channels commute with the ideal unitaries (depolarizing is
    unitarily covariant, leak exchange touches only the trace), so a whole
    sequence collapses: polarization along the ideal trajectory shrinks by
    ((1-2r)(1-q))^M over its M compiled gates (inverter excluded), and the
    in/out-of-subspace populations follow a two-state exchange chain.
    """
    group = clifford_group()
    index = np.uint8  # 24 elements; keeps the padded table small
    draws = np.zeros((len(seqs), max(len(seq.cliffords) for seq in seqs)), dtype=index)
    for row, seq in zip(draws, seqs):  # identity-padded
        row[:len(seq.cliffords)] = seq.cliffords
    mul = np.array(group.mul, dtype=index)
    product = np.zeros(len(seqs), dtype=index)
    for column in draws.T:
        product = mul[column, product]
    product = mul[[seq.inverter for seq in seqs], product]
    target = np.where([seq.expected_state == "uu" for seq in seqs], 0, group.x)
    if np.any(product != target):
        raise ConvergenceError("inverter does not return the expected state")
    total_gates = np.array(group.gate_count, dtype=index)[draws].sum(axis=1)
    r, q = model.per_gate_rates()
    trace_in = 0.5 * (1.0 + _libm_powers(1.0 - 2.0 * q, total_gates))
    polarization = _libm_powers((1.0 - 2.0 * r) * (1.0 - q), total_gates)
    return np.stack([0.5 * trace_in + 0.5 * polarization,
                     0.5 * trace_in - 0.5 * polarization,
                     1.0 - trace_in], axis=1)


def _probabilities(seqs: Sequence[SlerbSequence], model: ErrorModel) -> np.ndarray:
    """(P_survival, P_flip, P_leak) per sequence, (rows, 3), from one model call.

    Each row must sum to 1 within NORM_TOL.
    """
    if isinstance(model, ParametricModel):
        probs = _closed_form_probabilities(seqs, model)
    elif isinstance(model, FullScheduleModel):
        uu, ud, du, dd = model.spin_populations(seqs).T
        flipped = np.array([seq.expected_state != "uu" for seq in seqs])
        probs = np.stack([np.where(flipped, dd, uu), np.where(flipped, uu, dd), ud + du],
                         axis=1)
    else:
        raise ParameterError(f"unknown error model {model!r}")

    probs = np.clip(probs, 0.0, None)
    total = probs[:, 0] + probs[:, 1] + probs[:, 2]
    if not np.all(np.abs(total - 1.0) <= NORM_TOL):
        raise ConvergenceError("sequence probabilities do not sum to one")
    return probs / total[:, None]


def _sequence_probabilities(seq: SlerbSequence, model: ErrorModel) -> np.ndarray:
    """(P_survival, P_flip, P_leak) for one sequence: the one-row case."""
    return _probabilities([seq], model)[0]


def _shot_counts(probs: np.ndarray, shots: int, seed) -> tuple[int, int, int]:
    counts = _rng(seed).multinomial(shots, probs)
    return int(counts[0]), int(counts[1]), int(counts[2])


def simulate_sequence(seq: SlerbSequence, model: ErrorModel, shots: int,
                      seed: int) -> tuple[int, int, int]:
    """Multinomial shot counts (n_survival, n_flip, n_leak)."""
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    return _shot_counts(_sequence_probabilities(seq, model), shots, seed)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class SlerbDataset:
    """Per-sequence shot counts, one row per (length, sequence) pair."""

    n: np.ndarray
    sequence_id: np.ndarray
    shots: np.ndarray
    n_survival: np.ndarray
    n_flip: np.ndarray
    n_leak: np.ndarray

    def __post_init__(self):
        cols = (self.n, self.sequence_id, self.shots,
                self.n_survival, self.n_flip, self.n_leak)
        sizes = {c.shape for c in cols}
        if len(sizes) != 1 or self.n.ndim != 1 or self.n.size == 0:
            raise ParameterError("dataset columns must be matching 1-D arrays")
        total = self.n_survival + self.n_flip + self.n_leak
        if np.any(total != self.shots):
            raise ParameterError("shot counts must sum to shots in every row")
        if min(self.n_survival.min(), self.n_flip.min(), self.n_leak.min()) < 0:
            raise ParameterError("negative shot count")
        if self.n.min() < 1:
            raise ParameterError("sequence lengths must be >= 1")

    @property
    def lengths(self) -> np.ndarray:
        return np.unique(self.n)

    def truncated(self, max_n: int) -> "SlerbDataset":
        """The rows of sequences no longer than ``max_n``."""
        keep = self.n <= max_n
        if not np.any(keep):
            raise GridError("truncation removes every row")
        return SlerbDataset(*(np.asarray(c)[keep] for c in (
            self.n, self.sequence_id, self.shots,
            self.n_survival, self.n_flip, self.n_leak)))

    def fractions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Aggregate over sequences: lengths, f_survival, f_flip, total shots."""
        lengths = self.lengths
        f_surv = np.empty_like(lengths, dtype=float)
        f_flip = np.empty_like(lengths, dtype=float)
        tot = np.empty_like(lengths, dtype=float)
        for i, length in enumerate(lengths):
            rows = self.n == length
            tot[i] = self.shots[rows].sum()
            f_surv[i] = self.n_survival[rows].sum() / tot[i]
            f_flip[i] = self.n_flip[rows].sum() / tot[i]
        return lengths, f_surv, f_flip, tot

    @classmethod
    def from_columns(cls, n, sequence_id, shots, n_survival, n_flip, n_leak):
        cols = [np.asarray(c) for c in (n, sequence_id, shots, n_survival, n_flip, n_leak)]
        if not all(np.all((c == np.round(c)) & (np.abs(c) < 2.0 ** 53)) for c in cols):
            raise ParameterError("dataset cells must be finite integers")
        return cls(*(c.astype(int) for c in cols))


def collect_dataset(lengths: Sequence[int], n_sequences: int, shots: int,
                    model: ErrorModel, seed: int,
                    pauli_randomize: bool = True) -> SlerbDataset:
    """Run the benchmark: fresh random sequences per length, fixed shots each.

    Every sequence is drawn first; one model call then gives all outcome
    probabilities, and each row draws its shots from its own seed.
    """
    if len(lengths) == 0:
        raise ParameterError("need at least one sequence length")
    if n_sequences < 1:
        raise ParameterError("need at least one sequence per length")
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    root = np.random.SeedSequence(seed)
    seeds = [child.spawn(2) for child in root.spawn(len(lengths) * n_sequences)]
    rows_n = [int(length) for length in lengths for _ in range(n_sequences)]
    seqs = [generate_sequence(n, gen_seed, pauli_randomize)
            for n, (gen_seed, _) in zip(rows_n, seeds)]
    probs = _probabilities(seqs, model)
    counts = np.array([_shot_counts(p, shots, shot_seed)
                       for p, (_, shot_seed) in zip(probs, seeds)], dtype=int)
    return SlerbDataset.from_columns(
        rows_n, list(range(n_sequences)) * len(lengths), np.full(len(rows_n), shots),
        counts[:, 0], counts[:, 1], counts[:, 2])


# ---------------------------------------------------------------------------
# decay fits


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay rates and the derived per-gate error."""

    eps_rb: float
    eps_leak: float
    eps_flip: float
    eps_2q: float

    def __post_init__(self):
        for name in ("eps_rb", "eps_leak", "eps_flip"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        expected = _eps_2q(self.eps_rb, self.eps_leak)
        if abs(self.eps_2q - expected) > 1e-9 * max(expected, 1e-12):
            raise ParameterError("eps_2q inconsistent with fitted rates")


def _eps_2q(eps_rb: float, eps_leak: float) -> float:
    return (1.2 * eps_rb + 0.8 * eps_leak) / GATES_PER_CLIFFORD_REPORTING


def _gauss_newton_power(n, y, variance_fn, forward, jacobian, x0, lo, hi):
    """Fit y ~ forward(x, N) for a scalar decay parameter per column.

    Weights are recomputed from the model at the current parameter
    (iteratively reweighted least squares); observed-fraction weights would
    correlate with the noise and bias the rates low.  ``y`` is (n_lengths,
    batch), ``n`` the (n_lengths, 1) lengths and ``x0`` the (batch,) start,
    so every ufunc runs along a batch-long row.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    for _ in range(80):
        f = forward(x, n)
        jac = jacobian(x, n)
        wj = 1.0 / variance_fn(f) * jac
        num = np.sum(wj * (y - f), axis=0)
        den = np.sum(wj * jac, axis=0)
        step = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        x = np.clip(x + step, lo, hi)
        if np.all(np.abs(step) < 1e-14):
            break
    else:
        if np.any(np.abs(step) > 1e-8):
            raise ConvergenceError("decay fit did not converge")
    return x


def _fit_rates_batch(lengths: np.ndarray, f_surv: np.ndarray, f_flip: np.ndarray,
                     tot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized two-stage fit of every column of (n_lengths, batch) fractions.

    ``lengths`` is (n_lengths,) and the shot totals behind each fraction
    ``tot`` are (n_lengths, batch); returns (eps_rb, eps_leak), each (batch,).
    """
    n = lengths[:, None]
    var_floor = 1.0 / (2.0 * tot)
    f_leak = 1.0 - f_surv - f_flip

    # stage 1: leak fraction vs 1 - L(N), parametrized by b = 1 - 2 eps_leak
    slope = np.clip(f_leak[-1] / lengths[-1], 1e-12, 0.49)
    b0 = 1.0 - 2.0 * slope
    b = _gauss_newton_power(
        n, f_leak,
        lambda f: np.maximum(f * (1.0 - f), var_floor) / tot,
        lambda x, n: 0.5 * (1.0 - x**n),
        lambda x, n: -0.5 * n * x ** (n - 1.0),
        b0, 0.0, 1.0)
    eps_leak = 0.5 * (1.0 - b)

    # stage 2: polarization vs a^N with a = (1 - eps_leak)(1 - 2 eps_rb);
    # the in-subspace probability L from stage 1 sets the contrast variance
    z = f_surv - f_flip
    big_l = 0.5 * (1.0 + b ** n)
    a0 = np.clip(np.abs(z[-1]), 1e-12, 1.0) ** (1.0 / lengths[-1])
    a = _gauss_newton_power(
        n, z,
        lambda f: np.maximum(big_l - f**2, var_floor) / tot,
        lambda x, n: x**n,
        lambda x, n: n * x ** (n - 1.0),
        a0, 0.0, 1.0)
    eps_rb = np.clip(0.5 * (1.0 - a / np.maximum(1.0 - eps_leak, 1e-12)), 0.0, None)
    return eps_rb, eps_leak


def fit_decays(data: SlerbDataset) -> DecayFit:
    """Weighted least-squares rates from aggregated per-length fractions;
    fit ``data.truncated(max_n)`` to fit the shorter sequences alone."""
    lengths, f_surv, f_flip, tot = data.fractions()
    if lengths.size < 3:
        raise GridError("need at least three distinct sequence lengths")
    lengths = lengths.astype(float)
    eps_rb, eps_leak = _fit_rates_batch(
        lengths, f_surv[:, None], f_flip[:, None], tot[:, None])
    eps_rb, eps_leak = float(eps_rb[0]), float(eps_leak[0])
    # initial slope of the fitted flip curve, ~ eps_rb at small rates
    b = 1.0 - 2.0 * eps_leak
    a = (1.0 - eps_leak) * (1.0 - 2.0 * eps_rb)
    eps_flip = max(0.0, 0.5 * (0.5 * math.log(max(b, 1e-300))
                               - math.log(max(a, 1e-300))))
    return DecayFit(eps_rb=eps_rb, eps_leak=eps_leak, eps_flip=eps_flip,
                    eps_2q=_eps_2q(eps_rb, eps_leak))


def bootstrap_ci(data: SlerbDataset, resamples: int = 10000,
                 seed: int = 0) -> dict[str, tuple[float, float]]:
    """68% percentile intervals from sequence-level resampling.

    Rows are resampled with replacement within each length,
    ``RESAMPLE_BLOCK`` resamples at a time; the blocks are consecutive
    slices of one (resamples, rows) draw.  Each resample is weighted by its
    own per-length shot totals, as :func:`fit_decays` of that resample
    would be.  Only the per-length fractions and totals are stored for
    every resample (24 bytes per length per resample); the lengths-major
    fit then works on one block of resamples at a time.
    """
    if resamples < 100:
        raise ParameterError("resamples must be >= 100")
    lengths = data.lengths
    if lengths.size < 3:
        raise GridError("need at least three distinct sequence lengths")
    row_sets = [np.flatnonzero(data.n == length) for length in lengths]
    if min(rows.size for rows in row_sets) < 2:
        raise DomainError("bootstrap needs at least two sequences per length")
    blocks = [slice(start, min(start + RESAMPLE_BLOCK, resamples))
              for start in range(0, resamples, RESAMPLE_BLOCK)]
    rng = _rng(seed)
    f_surv, f_flip, tot = (np.empty((lengths.size, resamples)) for _ in range(3))
    for j, rows in enumerate(row_sets):
        shots, surv, flip = data.shots[rows], data.n_survival[rows], data.n_flip[rows]
        for block in blocks:
            # a slice of the Philox draws of rng.choice(rows, size=(resamples, rows.size))
            pick = rng.integers(0, rows.size, size=(block.stop - block.start, rows.size))
            tot[j, block] = shots[pick].sum(axis=1)
            f_surv[j, block] = surv[pick].sum(axis=1) / tot[j, block]
            f_flip[j, block] = flip[pick].sum(axis=1) / tot[j, block]
    n = lengths.astype(float)
    eps_rb, eps_leak = np.empty(resamples), np.empty(resamples)
    for block in blocks:
        eps_rb[block], eps_leak[block] = _fit_rates_batch(
            n, f_surv[:, block], f_flip[:, block], tot[:, block])
    eps_2q = _eps_2q(eps_rb, eps_leak)

    def interval(values):
        lo, hi = np.percentile(values, [16.0, 84.0])
        return float(lo), float(hi)

    return {
        "eps_rb": interval(eps_rb),
        "eps_leak": interval(eps_leak),
        "eps_2q": interval(eps_2q),
    }
