"""Randomized benchmarking of entangling gates on the even-parity subspace.

The two states |uu> and |dd> form an effective qubit.  A fully entangling
gate with drive-basis phase phi acts on that qubit as a pi/2 rotation about
an equatorial axis at angle 2*phi, so products of entangling gates in
rotated bases reach the whole 24-element single-qubit Clifford group without
any one-qubit pulses.  Sequences of random Cliffords plus an inverting
Clifford decay towards the subspace-depolarized steady state; leakage to
|ud>, |du> and the in-subspace contrast decay at separate rates which a
two-stage fit extracts.

Decay model, chosen for its exact match to the error channels below and
documented here because no external reference form is assumed:

    in-subspace probability   L(N) = (1 + (1 - 2*eps_leak)^N) / 2
    polarization              c(N) = ((1 - eps_leak) * (1 - 2*eps_rb))^N
    P_survival = (L + c) / 2,  P_flip = (L - c) / 2,  P_leak = 1 - L

with no vertical offset (state preparation and measurement errors are
assumed negligible).  For small rates P_leak ~ N * eps_leak and
P_flip ~ N * eps_rb.  Both stages fit a power law y ~ x^N, weighted by
the shot-noise variance the model predicts: first the in-subspace
contrast 1 - 2*P_leak = (1 - 2*eps_leak)^N, then P_survival - P_flip = c(N).

The group is one cached table, :func:`clifford_table`: the breadth-first
search that finds each element's shortest gate word also records where
each generator takes each element, and the Cayley table, the inverses and
the logical X follow from those moves, with no matrix compared after the
search.  Sequences are integer arithmetic on that table, their draws one
byte each.  A dataset is simulated in one pass: every row's generator
keys are hashed together, every sequence is drawn, then one model call
returns all outcome probabilities.  The parametric model evaluates
its closed form over the array of compiled gate counts; the
full model steps all sequences together as one (sequences, 4, dim) state,
applying one exact gate propagator, at a Fock cutoff sized for the
longest sequence, to every compiled gate.

Bootstrap intervals resample sequences within each length.  Each length
draws its row positions ``RESAMPLE_BLOCK`` resamples at a time.  Each
row's shots, survivals and flips are packed into one int64 (two or three
when the fields are wide), so a block's per-length sums take one gather
and one sum, unpacked by shifts and masks.  The per-length sums of every
resample are stored (24 bytes per length per resample), and the
lengths-major fit refits them one block at a time, so nothing else grows
with the resample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, GridError, ParameterError, check_finite
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
    """Position in ``matrices`` of the 2x2 unitary ``u`` up to phase:
    |tr(A^dag U)| = 2 iff U = e^{ia} A."""
    return next((k for k, a in enumerate(matrices) if abs(np.vdot(a, u)) > 2.0 - 1e-9), None)


@dataclass(frozen=True)
class CliffordGroup:
    """The 24 effective-qubit Cliffords and their integer arithmetic.

    Element a is ``matrices[a]``, realized by the word ``gates[a]``: a
    shortest product of entangling gates, applied left to right, each an
    index into ``GENERATOR_PHASES`` (the ``GATE_ANGLE`` gate at that basis
    phase).  ``mul[a][b]`` is the index of matrices[a] @ matrices[b],
    ``inv[a]`` that of the inverse of a, and ``x`` that of the logical X.
    """

    matrices: tuple[np.ndarray, ...] = field(repr=False)
    gates: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    x: int

    def compose(self, cliffords: Sequence[int]) -> int:
        """Index of the product of ``cliffords``, applied left to right."""
        p = 0
        for c in cliffords:
            p = self.mul[c][p]
        return p


@lru_cache(maxsize=1)
def clifford_table() -> CliffordGroup:
    """The group, breadth-first from the four generators.

    Index 0 is the identity; indices are assigned in discovery order, so
    the table is deterministic, and every element gets a shortest word.
    The search records where each generator takes each element; every
    product then follows from those moves, by folding a word over an index.
    """
    gens = [logical_gate_unitary(GATE_ANGLE, phi) for phi in GENERATOR_PHASES]
    matrices, gates = [np.eye(2, dtype=complex)], [()]
    left = [[] for _ in gens]  # left[k][a]: index of gens[k] @ matrices[a]
    for a, m in enumerate(matrices):  # reaches the elements appended below, in order
        for k, gen in enumerate(gens):
            u = gen @ m
            j = _index_up_to_phase(u, matrices)
            if j is None:
                j = len(matrices)
                matrices.append(u)
                gates.append(gates[a] + (k,))
            left[k].append(j)
    if len(matrices) != 24:
        raise ConvergenceError(f"Clifford closure found {len(matrices)} elements, expected 24")

    def product(a: int, b: int) -> int:
        for k in gates[a]:
            b = left[k][b]
        return b

    mul = tuple(tuple(product(a, b) for b in range(24)) for a in range(24))
    return CliffordGroup(matrices=tuple(matrices), gates=tuple(gates), mul=mul,
                         inv=tuple(row.index(0) for row in mul),
                         x=_index_up_to_phase(np.array([[0.0, 1.0], [1.0, 0.0]]), matrices))


def mean_gates_per_clifford() -> float:
    """Average compiled gate count over the 24-element table."""
    gates = clifford_table().gates
    return sum(map(len, gates)) / len(gates)


# ---------------------------------------------------------------------------
# sequences


# every byte that is a Clifford index: deleting them leaves any other byte
_CLIFFORD_INDICES = bytes(range(24))


@dataclass(frozen=True, slots=True)
class SlerbSequence:
    """A benchmarking sequence: random Cliffords, one byte each, closed by
    the inverting Clifford that returns |uu> to ``expected_state``, "uu" or "dd"."""

    cliffords: bytes
    expected_state: str

    def __post_init__(self):
        if self.expected_state not in ("uu", "dd"):
            raise ParameterError("expected_state must be 'uu' or 'dd'")
        if type(self.cliffords) is not bytes:
            raise ParameterError("cliffords must be bytes, one Clifford index each")
        if self.cliffords.translate(None, _CLIFFORD_INDICES):
            raise ParameterError("Clifford indices must lie in 0..23")

    @property
    def inverter(self) -> int:
        """The inverse of the drawn product, times the logical X for "dd"."""
        group = clifford_table()
        inverter = group.inv[group.compose(self.cliffords)]
        return group.mul[group.x][inverter] if self.expected_state == "dd" else inverter

    @property
    def total_gates(self) -> int:
        return len(_gate_path(self))


@lru_cache(maxsize=1)
def _compiled_words() -> tuple[bytes, ...]:
    """Each Clifford's compiled word as bytes of generator indices."""
    return tuple(map(bytes, clifford_table().gates))


def _gate_path(seq: SlerbSequence) -> bytes:
    """The generator index of every compiled gate of ``seq``, inverter included."""
    words = _compiled_words()
    return b"".join(map(words.__getitem__, seq.cliffords + bytes((seq.inverter,))))


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draw(rng: np.random.Generator, n: int, pauli_randomize: bool) -> SlerbSequence:
    """``n`` uniform Cliffords from ``rng``, then, with ``pauli_randomize``,
    one bit that puts a logical X into the inverter."""
    if n < 1:
        raise ParameterError("sequence length must be >= 1")
    draws = rng.integers(0, 24, size=n).astype(np.uint8).tobytes()
    flipped = pauli_randomize and rng.integers(0, 2)
    return SlerbSequence(cliffords=draws, expected_state="dd" if flipped else "uu")


def generate_sequence(n: int, seed: int, pauli_randomize: bool = True) -> SlerbSequence:
    """Draw ``n`` uniform Cliffords.

    With ``pauli_randomize`` the inverter absorbs a logical X half the time,
    so the expected outcome is |dd> instead of |uu>.
    """
    return _draw(_rng(seed), n, pauli_randomize)


_MASK32 = 0xFFFFFFFF


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32 column of start * mult**i mod 2**32."""
    return np.array([start * pow(mult, i, 1 << 32) & _MASK32 for i in range(count + 1)],
                    dtype=np.uint32)[:, None]


def _row_keys(seed: int, rows: int, stream: int) -> np.ndarray:
    """(rows, 2) uint64: row r's ``SeedSequence(seed, spawn_key=(r, stream))
    .generate_state(2, np.uint64)``, for every r below ``rows`` (< 2**32) at once.

    numpy's SeedSequence hash, in uint32 array arithmetic.  The entropy is
    the seed's little-endian 32-bit words, zero-padded to the four words of
    the pool, then r, then ``stream``.  Each hashmix xors and multiplies by
    the next two of one geometric run of constants, so the k hashmixes that
    feed k pool words are one (k, rows) operation.  The seed's own words are
    the same in every row and stay (1,) columns until r mixes in.
    """
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    later = [np.full(1, w, np.uint32) for w in words[4:]]
    later += [np.arange(rows, dtype=np.uint32), np.full(1, stream, np.uint32)]
    hash_const = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * len(later))
    calls = 0

    def hashmix(value, k):
        nonlocal calls
        value = (value ^ hash_const[calls:calls + k]) * hash_const[calls + 1:calls + k + 1]
        calls += k
        return value ^ value >> 16

    def mix(x, y):
        result = 0xCA01F9DD * x - 0x4973F715 * y
        return result ^ result >> 16

    pool = hashmix(np.array(words[:4], dtype=np.uint32)[:, None], 4)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], 3))
    for word in later:
        pool = mix(pool, hashmix(word, 4))
    out_const = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
    out = (pool ^ out_const[:4]) * out_const[1:]
    out = (out ^ out >> 16).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


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
    once per dataset, serves all four generator bases.  The mode starts
    in |0>.
    """

    schedule: PulseSchedule

    def blocks(self, max_gates: int) -> BranchPropagators:
        """Branch blocks at the ``FockConfig.auto`` cutoff for up to ``max_gates`` gates."""
        fock = FockConfig.auto(0.0, _max_branch_displacement(self.schedule, max_gates))
        return gate_propagator(self.schedule, fock)

    def spin_populations(self, seqs: Sequence[SlerbSequence]) -> np.ndarray:
        """(uu, ud, du, dd) populations at the end of each compiled sequence, (rows, 4).

        The cutoff is sized for the longest sequence.  Rows are stepped
        longest first, ``SEQUENCE_BLOCK`` at a time.
        """
        paths = list(map(_gate_path, seqs))
        counts = np.array(list(map(len, paths)), dtype=int)
        props = self.blocks(int(counts.max(initial=0)))
        order = np.argsort(-counts, kind="stable")
        pops = np.empty((len(seqs), 4))
        for start in range(0, order.size, SEQUENCE_BLOCK):
            rows = order[start:start + SEQUENCE_BLOCK]
            pops[rows] = _step_sequences(props, [paths[r] for r in rows], counts[rows])
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


def _step_sequences(props: BranchPropagators, paths: Sequence[bytes],
                    lengths: np.ndarray) -> np.ndarray:
    """(rows, 4) z-basis spin populations after each row's gate path, of
    ``lengths`` compiled gates.

    Rows must be sorted longest first, so the rows still running at step t
    are the first ones; their paths fill one byte-wide table of generators.
    Between gates a row stays in its last gate's eigenbasis: each step
    rotates the running rows into the next gate's basis with one batched 4x4
    product, applies one matmul per branch, and guards the norm and the
    cutoff population of every running row.
    """
    rows, dim = len(paths), props.dim
    path = np.full((rows, lengths.max(initial=0) + 1), Z_BASIS, dtype=np.uint8)
    for row, gates, n in zip(path, paths, lengths):
        row[1:n + 1] = np.frombuffer(gates, np.uint8)
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
    word_lengths = bytes(map(len, _compiled_words())).ljust(256, b"\0")
    total_gates = np.array([sum(seq.cliffords.translate(word_lengths)) for seq in seqs],
                           dtype=int)
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


def simulate_sequence(seq: SlerbSequence, model: ErrorModel, shots: int,
                      seed: int) -> tuple[int, int, int]:
    """Multinomial shot counts (n_survival, n_flip, n_leak)."""
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    n_survival, n_flip, n_leak = _rng(seed).multinomial(shots, _probabilities([seq], model)[0])
    return int(n_survival), int(n_flip), int(n_leak)


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
        if self.shots.min() < 1:
            raise ParameterError("shots must be >= 1 in every row")

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
    probabilities.  Row r (lengths-major) draws its Cliffords from a Philox
    generator seeded by ``SeedSequence(seed, spawn_key=(r, 0))`` and its
    shots from one seeded by ``spawn_key=(r, 1)``: the two children of the
    r-th child of ``SeedSequence(seed)``.  :func:`_row_keys` computes every
    row's Philox key of one stream at once, and one generator is re-keyed
    for each row, starting where a new one would.
    """
    if type(seed) is bool or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError("seed must be an int >= 0")
    seed = int(seed)
    if len(lengths) == 0:
        raise ParameterError("need at least one sequence length")
    if n_sequences < 1:
        raise ParameterError("need at least one sequence per length")
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    rows_n = [int(length) for length in lengths for _ in range(n_sequences)]
    rng = _rng(0)
    state = rng.bit_generator.state  # counter 0, empty buffer: a new generator's start

    def rekeyed(key):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        return rng

    seqs = [_draw(rekeyed(key), n, pauli_randomize)
            for n, key in zip(rows_n, _row_keys(seed, len(rows_n), 0))]
    counts = np.empty((len(seqs), 3), dtype=int)
    for r, (p, key) in enumerate(zip(_probabilities(seqs, model),
                                     _row_keys(seed, len(seqs), 1))):
        counts[r] = rekeyed(key).multinomial(shots, p)
    return SlerbDataset.from_columns(
        rows_n, list(range(n_sequences)) * len(lengths), np.full(len(rows_n), shots),
        counts[:, 0], counts[:, 1], counts[:, 2])


# ---------------------------------------------------------------------------
# decay fits


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay rates; the flip rate and per-gate error derive from them."""

    eps_rb: float
    eps_leak: float

    def __post_init__(self):
        check_finite(eps_rb=self.eps_rb, eps_leak=self.eps_leak)
        for name in ("eps_rb", "eps_leak"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")

    @property
    def eps_flip(self) -> float:
        """Initial slope of the fitted flip curve, ~ eps_rb at small rates."""
        b = 1.0 - 2.0 * self.eps_leak
        a = (1.0 - self.eps_leak) * (1.0 - 2.0 * self.eps_rb)
        return max(0.0, 0.5 * (0.5 * math.log(max(b, 1e-300))
                               - math.log(max(a, 1e-300))))

    @property
    def eps_2q(self) -> float:
        return _eps_2q(self.eps_rb, self.eps_leak)


def _eps_2q(eps_rb: float, eps_leak: float) -> float:
    return (1.2 * eps_rb + 0.8 * eps_leak) / mean_gates_per_clifford()


def _power_fit(n, y, variance):
    """Fit y ~ x^N for a decay parameter x in [0, 1] per column.

    Iteratively reweighted Gauss-Newton from x = |y|^(1/N) at the longest
    length: ``variance`` maps the model to the data's variance at the
    current parameter, because observed-fraction weights would correlate
    with the noise and bias the rates low.  ``y`` is (n_lengths, batch) and
    ``n`` the (n_lengths, 1) lengths, so every ufunc runs along a
    batch-long row.
    """
    x = np.clip(np.abs(y[-1]), 1e-12, 1.0) ** (1.0 / n[-1])
    n_less_one = n - 1.0
    for _ in range(80):
        p = x ** n_less_one
        model, jac = x * p, n * p
        wj = jac / variance(model)
        num = np.sum(wj * (y - model), axis=0)
        den = np.sum(wj * jac, axis=0)
        step = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        x = np.clip(x + step, 0.0, 1.0)
        if np.all(np.abs(step) < 1e-14):
            break
    else:
        if np.any(np.abs(step) > 1e-8):
            raise ConvergenceError("decay fit did not converge")
    return x


def _fit_rates_batch(lengths: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized two-stage fit of every column of per-length sums.

    ``lengths`` is (n_lengths,) and ``sums`` the (3, n_lengths, batch)
    integer sums of shots, survivals and flips; each column is weighted by
    its own shot totals.  Returns (eps_rb, eps_leak), each (batch,).
    """
    n = np.asarray(lengths, dtype=float)[:, None]
    tot = sums[0].astype(float)

    # stage 1: in-subspace contrast 1 - 2 P_leak = b^N with b = 1 - 2 eps_leak
    y = 2.0 * (sums[1] + sums[2]) / tot - 1.0
    floor = 2.0 / tot
    b = _power_fit(n, y, lambda g: np.maximum(1.0 - g**2, floor) / tot)
    eps_leak = 0.5 * (1.0 - b)

    # stage 2: polarization vs a^N with a = (1 - eps_leak)(1 - 2 eps_rb);
    # the in-subspace probability L from stage 1 sets the contrast variance
    z = (sums[1] - sums[2]) / tot
    big_l = 0.5 * (1.0 + b ** n)
    floor = 0.5 / tot
    a = _power_fit(n, z, lambda g: np.maximum(big_l - g**2, floor) / tot)
    eps_rb = np.clip(0.5 * (1.0 - a / np.maximum(1.0 - eps_leak, 1e-12)), 0.0, None)
    return eps_rb, eps_leak


def _by_length(data: SlerbDataset) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The distinct lengths, the (3, rows) stack of shots, survivals and
    flips, and the row indices of each length."""
    lengths = data.lengths
    if lengths.size < 3:
        raise GridError("need at least three distinct sequence lengths")
    row_sets = [np.flatnonzero(data.n == length) for length in lengths]
    # below 2**53 every resampled sum of shots and every float total is exact
    if any(rows.size * int(data.shots[rows].max()) >= 2 ** 53 for rows in row_sets):
        raise ParameterError("rows x largest shots of one length must lie below 2**53")
    return lengths, np.stack([data.shots, data.n_survival, data.n_flip]), row_sets


def fit_decays(data: SlerbDataset) -> DecayFit:
    """Weighted least-squares rates from the per-length sums of shot counts;
    fit ``data.truncated(max_n)`` to fit the shorter sequences alone."""
    lengths, columns, row_sets = _by_length(data)
    sums = np.stack([columns[:, rows].sum(axis=1, keepdims=True) for rows in row_sets], axis=1)
    eps_rb, eps_leak = _fit_rates_batch(lengths, sums)
    return DecayFit(eps_rb=float(eps_rb[0]), eps_leak=float(eps_leak[0]))


def bootstrap_ci(data: SlerbDataset, resamples: int = 10000,
                 seed: int = 0) -> dict[str, tuple[float, float]]:
    """68% percentile intervals from sequence-level resampling.

    Rows are resampled with replacement within each length,
    ``RESAMPLE_BLOCK`` resamples at a time; the blocks are consecutive
    slices of one (resamples, rows) draw.  Each resample is weighted by its
    own per-length shot totals, as :func:`fit_decays` of that resample
    would be.  A row's shots, survivals and flips are packed into int64
    fields wide enough for their sums over the length's rows, as many to a
    word as fit in 63 bits, so one gather and one sum per block serve all
    three.  Only the per-length sums are stored for every resample (24
    bytes per length per resample); the lengths-major fit then works on one
    block of resamples at a time.
    """
    if resamples < 100:
        raise ParameterError("resamples must be >= 100")
    lengths, columns, row_sets = _by_length(data)
    if min(rows.size for rows in row_sets) < 2:
        raise DomainError("bootstrap needs at least two sequences per length")
    blocks = [slice(start, min(start + RESAMPLE_BLOCK, resamples))
              for start in range(0, resamples, RESAMPLE_BLOCK)]
    rng = _rng(seed)
    sums = np.empty((3, lengths.size, resamples), dtype=np.int64)
    for j, rows in enumerate(row_sets):
        # shots bound the survivals and flips, so no field's sum reaches 2**width
        width = (rows.size * int(data.shots[rows].max())).bit_length()
        word, field = np.divmod(np.arange(3), 63 // width)
        shifts, mask = (width * field)[:, None], (1 << width) - 1
        packed = np.zeros((word[-1] + 1, rows.size), dtype=np.int64)
        for k, column in enumerate(columns[:, rows]):
            packed[word[k]] |= column << shifts[k]
        for block in blocks:
            # a slice of the Philox draws of rng.choice(rows, size=(resamples, rows.size))
            pick = rng.integers(0, rows.size, size=(block.stop - block.start, rows.size))
            totals = np.take(packed, pick, axis=1).sum(axis=2)
            sums[:, j, block] = (totals[word] >> shifts) & mask
    rates = np.empty((3, resamples))
    for block in blocks:
        rates[0, block], rates[1, block] = _fit_rates_batch(lengths, sums[:, :, block])
    rates[2] = _eps_2q(rates[0], rates[1])
    lo, hi = np.percentile(rates, [16.0, 84.0], axis=1, overwrite_input=True)
    return {name: (float(a), float(b))
            for name, a, b in zip(("eps_rb", "eps_leak", "eps_2q"), lo, hi)}
