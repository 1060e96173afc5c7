"""Tests for subspace randomized benchmarking: compilation, decay fits, CIs."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iongate import quantum, slerb
from iongate.errors import (ConvergenceError, DomainError, GridError,
                            ParameterError, TruncationError)
from iongate.quantum import FockConfig
from iongate.schedule import (SmoothGateParams, WalshGateParams, build_smooth_schedule,
                              build_walsh_schedule)
from iongate.semiclassical import calibrate_omega
from iongate.slerb import (
    GATE_ANGLE,
    DecayFit,
    FullScheduleModel,
    ParametricModel,
    SlerbDataset,
    bootstrap_ci,
    clifford_table,
    collect_dataset,
    fit_decays,
    generate_sequence,
    logical_gate_unitary,
    mean_gates_per_clifford,
    simulate_sequence,
)
from stepped_oracle import spin_fock, stepped_blocks, stepped_propagate

TWO_PI = 2.0 * math.pi


def equal_up_to_phase(a, b, tol=1e-12):
    k = np.argmax(np.abs(b))
    if abs(abs(a.ravel()[k]) - abs(b.ravel()[k])) > tol:
        return False
    ratio = b.ravel()[k] / a.ravel()[k]
    return np.abs(a * ratio - b).max() < tol


def index_of(u):
    """Position of ``u`` in the table's matrices, up to phase."""
    return next(k for k, m in enumerate(clifford_table().matrices) if equal_up_to_phase(m, u))


# ---------------------------------------------------------------------------
# compilation table


def test_clifford_table_has_24_unitary_elements():
    table = clifford_table()
    assert len(table.matrices) == len(table.gates) == 24
    assert table.gates[0] == ()
    assert np.allclose(table.matrices[0], np.eye(2))
    for m in table.matrices:
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_table_matches_independent_group_construction():
    # closure of the standard generators is an independent route to the group
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    s = np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
    group = [np.eye(2, dtype=complex)]
    frontier = list(group)
    while frontier:
        fresh = []
        for g in frontier:
            for m in (h, s):
                u = m @ g
                if not any(equal_up_to_phase(v, u) for v in group):
                    group.append(u)
                    fresh.append(u)
        frontier = fresh
    assert len(group) == 24
    # every table element is exactly one member of the H, S closure
    for m in clifford_table().matrices:
        assert sum(equal_up_to_phase(v, m) for v in group) == 1
    assert sorted(index_of(v) for v in group) == list(range(24))


def test_cayley_table_matches_matrix_products():
    # the table is built from the search's generator moves; matrix products
    # over all 576 pairs are the independent route
    table = clifford_table()
    mats = table.matrices
    for a in range(24):
        for b in range(24):
            assert equal_up_to_phase(mats[table.mul[a][b]], mats[a] @ mats[b])
        assert equal_up_to_phase(mats[table.inv[a]], mats[a].conj().T)
        assert table.mul[a][table.inv[a]] == 0
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert equal_up_to_phase(mats[table.x], x)


def matrix_fold(cliffords):
    """2x2 product of table matrices, applied left to right."""
    mats = clifford_table().matrices
    u = np.eye(2, dtype=complex)
    for c in cliffords:
        u = mats[c] @ u
    return u


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       pauli_randomize=st.booleans())
def test_inverter_closes_sequence_in_matrix_fold(n, seed, pauli_randomize):
    seq = generate_sequence(n, seed=seed, pauli_randomize=pauli_randomize)
    u = matrix_fold(seq.cliffords + bytes((seq.inverter,)))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert equal_up_to_phase(u, np.eye(2) if seq.expected_state == "uu" else x,
                             tol=1e-9)
    assert seq.expected_state == "uu" or pauli_randomize


def test_compiled_gate_lists_reproduce_every_element():
    table = clifford_table()
    for word, m in zip(table.gates, table.matrices):
        u = np.eye(2, dtype=complex)
        for k in word:
            u = logical_gate_unitary(GATE_ANGLE, slerb.GENERATOR_PHASES[k]) @ u
        assert equal_up_to_phase(u, m)


def test_mean_gate_count_is_table_constant():
    # shortest products over the four generator phases: 52 gates / 24 elements
    assert mean_gates_per_clifford() == pytest.approx(13.0 / 6.0, abs=1e-12)


def test_logical_gate_unitary_rotation_axes():
    # basis phase phi rotates the logical axis to 2*phi in the equator
    rx = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / math.sqrt(2.0)
    assert equal_up_to_phase(logical_gate_unitary(-math.pi / 2, 0.0), rx.conj().T)
    ry = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
    assert equal_up_to_phase(logical_gate_unitary(-math.pi / 2, math.pi / 4),
                             ry.conj().T)
    # opposite axis inverts the rotation
    u = logical_gate_unitary(-math.pi / 2, 0.0)
    v = logical_gate_unitary(-math.pi / 2, math.pi / 2)
    assert equal_up_to_phase(u @ v, np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# sequences


def test_generate_sequence_is_deterministic():
    a = generate_sequence(12, seed=42)
    b = generate_sequence(12, seed=42)
    assert a == b
    c = generate_sequence(12, seed=43)
    assert a.cliffords != c.cliffords
    with pytest.raises(ParameterError):
        generate_sequence(0, seed=1)


def test_sequence_rows_carry_no_instance_dict():
    # a slotted row costs its three fields, not a per-row __dict__ as well
    seq = generate_sequence(3, seed=1)
    assert not hasattr(seq, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.expected_state = "dd"


BAD_SEQUENCES = [
    (b"\x00\x01", "ud"), (b"\x00\x01", "du"), (b"\x00\x01", ""),
    (bytes([0, 24]), "uu"), (bytes([24]), "dd"),
    # anything but bytes: a list, an array, a tuple, a bytearray
    ([1, 2], "uu"), (np.array([1, 2], dtype=np.uint8), "uu"), ((1, 2), "uu"),
    (bytearray([1, 2]), "uu"), (bytes([3, 255, 1]), "uu"),
]


@pytest.mark.parametrize("cliffords, state", BAD_SEQUENCES, ids=[
    f"cliffords{k}-{state}" for k, (_, state) in enumerate(BAD_SEQUENCES)])
def test_sequence_rejects_states_and_indices_outside_the_table(cliffords, state):
    # the inverter is derived from these two fields, so only they can be wrong
    with pytest.raises(ParameterError):
        slerb.SlerbSequence(cliffords=cliffords, expected_state=state)


def test_single_identity_draw_gets_identity_inverter():
    seq = generate_sequence(1, seed=124, pauli_randomize=False)
    assert seq.cliffords == b"\x00"
    assert seq.inverter == 0
    assert seq.expected_state == "uu"


def test_pauli_randomization_flips_expected_state():
    states = {generate_sequence(4, seed=s).expected_state for s in range(30)}
    assert states == {"uu", "dd"}
    plain = {generate_sequence(4, seed=s, pauli_randomize=False).expected_state
             for s in range(30)}
    assert plain == {"uu"}


def test_ideal_sequences_always_survive():
    for seed in (0, 2, 7, 19):
        for n in (1, 5, 40):
            seq = generate_sequence(n, seed=seed)
            counts = simulate_sequence(seq, ParametricModel(0.0, 0.0), shots=50, seed=seed)
            assert counts == (50, 0, 0)


def test_zero_rate_parametric_equals_ideal():
    seq = generate_sequence(10, seed=5)
    assert simulate_sequence(seq, ParametricModel(0.0, 0.0), 80, seed=1) == (80, 0, 0)
    with pytest.raises(ParameterError):
        ParametricModel(-1e-3, 0.0)
    with pytest.raises(ParameterError):
        ParametricModel(0.0, 0.6)
    with pytest.raises(ParameterError):
        simulate_sequence(seq, ParametricModel(0.0, 0.0), shots=0, seed=1)


def test_parametric_closed_form_matches_channel_loop():
    # reference: apply the per-gate channels one at a time on the density matrix
    table = clifford_table()
    model = ParametricModel(3e-3, 1.5e-3)
    r, q = model.per_gate_rates()

    def loop_probs(seq):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 1.0
        p_out = 0.0
        for c in seq.cliffords:
            u = table.matrices[c]
            rho = u @ rho @ u.conj().T
            for _ in range(len(table.gates[c])):
                trace = rho[0, 0].real + rho[1, 1].real
                rho = (1.0 - 2.0 * r) * rho + r * trace * np.eye(2)
                trace = rho[0, 0].real + rho[1, 1].real
                rho = (1.0 - q) * rho + 0.5 * q * p_out * np.eye(2)
                p_out = (1.0 - q) * p_out + q * trace
        u = table.matrices[seq.inverter]
        rho = u @ rho @ u.conj().T
        e = 0 if seq.expected_state == "uu" else 1
        return np.array([rho[e, e].real, rho[1 - e, 1 - e].real, p_out])

    for seed in range(6):
        seq = generate_sequence(25, seed=900 + seed)
        fast = slerb._probabilities([seq], model)[0]
        assert np.abs(fast - loop_probs(seq)).max() < 1e-12


def test_per_gate_rates_compose_to_per_clifford_rates():
    model = ParametricModel(4e-3, 2e-3)
    r, q = model.per_gate_rates()
    g = mean_gates_per_clifford()
    assert (1.0 - 2.0 * r) ** g == pytest.approx(1.0 - 2.0 * model.eps_rb, rel=1e-12)
    assert (1.0 - 2.0 * q) ** g == pytest.approx(1.0 - 2.0 * model.eps_leak, rel=1e-12)


def test_full_schedule_sequences_survive_at_gate_numerics_level():
    sched = build_walsh_schedule(WalshGateParams.calibrated(2, TWO_PI * 20e3))
    model = FullScheduleModel(sched)
    for seed in (1, 8):
        seq = generate_sequence(3, seed=seed)
        probs = slerb._probabilities([seq], model)[0]
        assert probs[0] > 1.0 - 1e-6
        counts = simulate_sequence(seq, model, shots=40, seed=seed)
        assert counts == (40, 0, 0)


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus-half-pi", "plus-half-pi"])
def test_full_model_admits_either_gate_handedness(sign):
    # delta_g = -2*Omega is the calibrated -pi/2 one-loop gate, +2*Omega its +pi/2 mirror
    omega = TWO_PI * 5e3
    model = FullScheduleModel(build_walsh_schedule(WalshGateParams(1, sign * 2.0 * omega, omega)))
    seqs = [generate_sequence(n, seed=s) for n in (1, 4, 16) for s in range(6)]
    assert {q.expected_state for q in seqs} == {"uu", "dd"}
    pops = model.spin_populations(seqs)
    kept = [row[0 if q.expected_state == "uu" else 3] for row, q in zip(pops, seqs)]
    assert min(kept) >= 1.0 - 1e-12


def test_probability_sum_is_checked_at_norm_tolerance(monkeypatch):
    model = FullScheduleModel(build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3)))
    seq = generate_sequence(2, seed=1)
    monkeypatch.setattr(FullScheduleModel, "spin_populations",
                        lambda self, seqs: np.array([[0.5, 0.0, 0.0, 0.5 + 1e-6]]))
    with pytest.raises(ConvergenceError):
        slerb._probabilities([seq], model)[0]


def stepped_probabilities(seq, step_gate, n_max):
    """Sequence outcome from a gate callback acting on a (4, n_max + 1) block."""
    state = spin_fock([1.0, 0.0, 0.0, 0.0], n=0, n_max=n_max)
    words = clifford_table().gates
    for c in seq.cliffords + bytes((seq.inverter,)):
        for k in words[c]:
            state = step_gate(state, slerb.GENERATOR_PHASES[k])
    uu, ud, du, dd = np.sum(np.abs(state) ** 2, axis=1)
    kept, flipped = (uu, dd) if seq.expected_state == "uu" else (dd, uu)
    return np.array([kept, flipped, ud + du])


@pytest.mark.parametrize("offset_hz", [0.0, 500.0])
def test_full_model_matches_per_gate_propagate_on_walsh_gate(offset_hz):
    # constant segments: the stepped propagator is exact there
    sched = build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3))
    sched = sched.with_detuning_offset(TWO_PI * offset_hz)
    model = FullScheduleModel(sched)
    for n, seed in ((3, 5), (12, 6), (40, 7)):
        seq = generate_sequence(n, seed=seed)
        n_max = model.blocks(seq.total_gates).dim - 1
        oracle = stepped_probabilities(
            seq, lambda state, phase: stepped_propagate(sched, state, basis_phase=phase),
            n_max)
        gap = np.abs(slerb._probabilities([seq], model)[0] - oracle).max()
        assert gap <= 1e-10
    if offset_hz:
        assert oracle[2] > 1e-4  # the offset leaves a visible error to compare


def test_full_model_is_the_limit_of_refined_stepping_on_smooth_gate():
    base = SmoothGateParams(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 80e3,
                            omega_g=TWO_PI * 40e3, tau_g=2e-6, tau_d=8e-6, j=3)
    sched = build_smooth_schedule(calibrate_omega(base, use="exact"))
    model = FullScheduleModel(sched)
    seqs = [generate_sequence(n, seed=s) for n, s in ((4, 1), (16, 2), (16, 3))]
    n_max = model.blocks(max(q.total_gates for q in seqs)).dim - 1
    exact = slerb._probabilities(seqs, model)
    gaps = []
    for steps in (200, 400):
        props = stepped_blocks(sched, FockConfig(n_max=n_max), steps_per_period=steps)
        stepped = np.array([stepped_probabilities(
            q, lambda state, phase: props.apply(state, phase), n_max)
            for q in seqs])
        gaps.append(np.abs(stepped - exact).max())
    # midpoint stepping is second order: the gap shrinks 4x per doubling
    assert 3.0 < gaps[0] / gaps[1] < 5.0
    assert gaps[1] <= 2e-6


def test_full_model_dataset_builds_blocks_once(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the full model must not step the propagator")

    monkeypatch.setattr(quantum, "propagate", forbidden)
    calls = {"blocks": 0, "auto": 0}
    build_blocks, auto = slerb.gate_propagator, FockConfig.auto.__func__

    def counted_blocks(*args, **kwargs):
        calls["blocks"] += 1
        return build_blocks(*args, **kwargs)

    def counted_auto(cls, *args, **kwargs):
        calls["auto"] += 1
        return auto(cls, *args, **kwargs)

    monkeypatch.setattr(slerb, "gate_propagator", counted_blocks)
    monkeypatch.setattr(FockConfig, "auto", classmethod(counted_auto))
    model = FullScheduleModel(build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3)))
    data = collect_dataset([1, 4, 8], n_sequences=3, shots=20, model=model, seed=2)
    assert np.all(data.n_survival == 20)
    assert calls == {"blocks": 1, "auto": 1}


def test_full_model_guards_cutoff(monkeypatch):
    sched = build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3))
    seq = generate_sequence(8, seed=4)
    # an offset gate leaves the mode displaced; three Fock levels cannot hold it
    monkeypatch.setattr(FockConfig, "auto", classmethod(lambda cls, *a: cls(n_max=2)))
    with pytest.raises(TruncationError):
        slerb._probabilities([seq], FullScheduleModel(
            sched.with_detuning_offset(TWO_PI * 2e3)))[0]


def walsh_gate(offset_hz=0.0):
    sched = build_walsh_schedule(WalshGateParams.calibrated(1, TWO_PI * 20e3))
    return sched.with_detuning_offset(TWO_PI * offset_hz) if offset_hz else sched


def calibrated_smooth_gate():
    base = SmoothGateParams(delta_max=-TWO_PI * 400e3, delta_min=-TWO_PI * 80e3,
                            omega_g=TWO_PI * 40e3, tau_g=2e-6, tau_d=8e-6, j=3)
    return build_smooth_schedule(calibrate_omega(base, use="exact"))


def per_gate_populations(props, seq):
    """Oracle: one BranchPropagators.apply per compiled gate, in z between gates."""
    words = clifford_table().gates
    state = np.zeros((4, props.dim), dtype=complex)
    state[0, 0] = 1.0
    for c in seq.cliffords + bytes((seq.inverter,)):
        for k in words[c]:
            state = props.apply(state, slerb.GENERATOR_PHASES[k])
    return np.sum(np.abs(state) ** 2, axis=1)


# an identity draw with an identity inverter compiles to no gate at all
IDENTITY_ROW = slerb.SlerbSequence(cliffords=b"\x00", expected_state="uu")


@pytest.mark.parametrize("gate", [
    lambda: walsh_gate(), lambda: walsh_gate(500.0), calibrated_smooth_gate,
], ids=["walsh", "walsh_500hz", "smooth"])
@pytest.mark.parametrize("block", [None, 3], ids=["one_block", "blocks_of_3"])
def test_batched_full_model_matches_per_gate_apply_loop(monkeypatch, gate, block):
    if block:
        monkeypatch.setattr(slerb, "SEQUENCE_BLOCK", block)
    model = FullScheduleModel(gate())
    seqs = [generate_sequence(n, seed=s) for n, s in ((1, 3), (12, 4), (5, 5), (30, 6), (1, 7))]
    seqs.insert(2, IDENTITY_ROW)
    assert len({q.total_gates for q in seqs}) >= 5
    pops = model.spin_populations(seqs)
    props = model.blocks(max(q.total_gates for q in seqs))
    oracle = np.array([per_gate_populations(props, q) for q in seqs])
    assert np.abs(pops - oracle).max() <= 1e-12


def test_zero_gate_rows_keep_the_initial_state():
    model = FullScheduleModel(walsh_gate())
    probs = slerb._probabilities([IDENTITY_ROW, generate_sequence(8, seed=2), IDENTITY_ROW], model)
    assert np.array_equal(probs[[0, 2]], [[1.0, 0.0, 0.0]] * 2)
    assert probs[1, 0] > 1.0 - 1e-9
    assert np.array_equal(slerb._probabilities([IDENTITY_ROW], model), [[1.0, 0.0, 0.0]])


def test_every_gate_of_every_running_row_is_guarded(monkeypatch):
    checked = []
    guard = slerb._guard_state

    def counted(norm, top):
        checked.append(len(norm))
        return guard(norm, top)

    monkeypatch.setattr(slerb, "_guard_state", counted)
    seqs = [generate_sequence(n, seed=s) for n, s in ((2, 1), (9, 2), (4, 3))] + [IDENTITY_ROW]
    FullScheduleModel(walsh_gate()).spin_populations(seqs)
    assert sum(checked) == sum(q.total_gates for q in seqs)


def test_truncation_in_one_row_of_the_batch_raises(monkeypatch):
    # a 2 kHz offset leaves the mode displaced after every gate; 17 Fock
    # levels hold the short rows but not the 88-gate one
    monkeypatch.setattr(FockConfig, "auto", classmethod(lambda cls, *a: cls(n_max=16)))
    model = FullScheduleModel(walsh_gate(2e3))
    short = [generate_sequence(1, seed=s) for s in range(4)]
    long = generate_sequence(40, seed=9)
    assert np.all(np.isfinite(slerb._probabilities(short, model)))
    with pytest.raises(TruncationError):
        slerb._probabilities(short[:2] + [long] + short[2:], model)


def test_unclosed_loop_cutoff_is_sized_for_the_sequence():
    # a 20 us gate whose loop does not close: each gate leaves |gamma_end| =
    # 0.54, and a one-gate cutoff cannot hold 8 such gates
    base = SmoothGateParams(delta_max=-TWO_PI * 300e3, delta_min=-TWO_PI * 60e3,
                            omega_g=TWO_PI * 30e3, tau_g=2e-6, tau_d=8e-6, j=3)
    model = FullScheduleModel(build_smooth_schedule(calibrate_omega(base, use="exact")))
    seq = generate_sequence(4, seed=0)
    probs = slerb._probabilities([seq], model)[0]
    uu, ud, du, dd = per_gate_populations(model.blocks(seq.total_gates), seq)
    kept, flipped = (uu, dd) if seq.expected_state == "uu" else (dd, uu)
    assert np.abs(probs - [kept, flipped, ud + du]).max() <= 1e-12
    assert model.blocks(seq.total_gates).dim > model.blocks(1).dim
    # a closed loop keeps its one-gate cutoff at any length
    walsh = FullScheduleModel(walsh_gate())
    assert walsh.blocks(10**4).dim == walsh.blocks(0).dim == 33


def scalar_closed_form(seq, model):
    """Reference: the per-sequence closed form in Python floats."""
    words = clifford_table().gates
    total = sum(len(words[c]) for c in seq.cliffords)
    r, q = model.per_gate_rates()
    trace_in = 0.5 * (1.0 + (1.0 - 2.0 * q) ** total)
    polarization = ((1.0 - 2.0 * r) * (1.0 - q)) ** total
    probs = np.clip(np.array([0.5 * trace_in + 0.5 * polarization,
                              0.5 * trace_in - 0.5 * polarization, 1.0 - trace_in]), 0.0, None)
    return probs / probs.sum()


@pytest.mark.parametrize("model", [ParametricModel(0.0, 0.0), ParametricModel(1.5e-4, 8e-5),
                                   ParametricModel(3e-2, 1e-2)])
def test_closed_form_dataset_equals_the_per_sequence_loop_bit_for_bit(model):
    lengths, n_sequences, shots, seed = [2, 7, 50, 300], 6, 100, 31
    data = collect_dataset(lengths, n_sequences, shots, model, seed)
    children = iter(np.random.SeedSequence(seed).spawn(len(lengths) * n_sequences))
    seqs, rows = [], []
    for n in lengths:
        for _ in range(n_sequences):
            gen_seed, shot_seed = next(children).spawn(2)
            seqs.append(generate_sequence(n, gen_seed))
            rows.append(simulate_sequence(seqs[-1], model, shots, shot_seed))
    assert np.array_equal(np.column_stack([data.n_survival, data.n_flip, data.n_leak]), rows)
    assert np.array_equal(slerb._probabilities(seqs, model),
                          [scalar_closed_form(q, model) for q in seqs])


def test_full_model_dataset_follows_the_per_row_seed_tree():
    # row r draws its Cliffords and its shots from the two children of the
    # r-th child of SeedSequence(seed); at a 500 Hz offset some rows leak
    model = FullScheduleModel(walsh_gate(500.0))
    lengths, n_sequences, shots, seed = [1, 8, 32], 4, 100, 7
    data = collect_dataset(lengths, n_sequences, shots, model, seed)
    tree = [child.spawn(2)
            for child in np.random.SeedSequence(seed).spawn(len(lengths) * n_sequences)]
    seqs = [generate_sequence(n, gen_seed)
            for n, (gen_seed, _) in zip(np.repeat(lengths, n_sequences).tolist(), tree)]
    probs = slerb._probabilities(seqs, model)
    rows = [np.random.Generator(np.random.Philox(shot_seed)).multinomial(shots, p)
            for p, (_, shot_seed) in zip(probs, tree)]
    assert np.array_equal(np.column_stack([data.n_survival, data.n_flip, data.n_leak]), rows)
    assert data.n_leak.sum() > 0


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**128 + 7],
                         ids=["0", "1", "2^32-1", "2^32", "2^53-1", "five-words"])
def test_row_keys_equal_seed_sequence_states(seed):
    # a seed of five words mixes its fifth into the pool after the first four
    for stream in (0, 1):
        keys = slerb._row_keys(seed, 1000, stream)
        assert keys.dtype == np.uint64 and keys.shape == (1000, 2)
        assert np.array_equal(keys, [
            np.random.SeedSequence(seed, spawn_key=(r, stream)).generate_state(2, np.uint64)
            for r in range(1000)])


def per_row_seed_sequence_dataset(lengths, n_sequences, shots, model, seed, pauli_randomize):
    """Oracle: row r builds its own Philox generators from
    SeedSequence(seed, spawn_key=(r, 0)) for its draws and (r, 1) for its
    shots.  Returns each row's (Clifford draws, expected state) and the
    (rows, 3) shot counts."""
    rows_n = [n for n in lengths for _ in range(n_sequences)]
    draws, seqs = [], []
    for r, n in enumerate(rows_n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r, 0))))
        cliffords = rng.integers(0, 24, size=n).tolist()
        state = "dd" if pauli_randomize and rng.integers(0, 2) else "uu"
        draws.append((cliffords, state))
        seqs.append(slerb.SlerbSequence(bytes(cliffords), state))
    counts = [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r, 1))))
              .multinomial(shots, p) for r, p in enumerate(slerb._probabilities(seqs, model))]
    return draws, np.array(counts)


@pytest.mark.parametrize("seed", [0, 2**32 + 5])
@pytest.mark.parametrize("pauli_randomize", [True, False], ids=["pauli", "no-pauli"])
@pytest.mark.parametrize("kind", ["parametric", "full"])
def test_collect_dataset_equals_the_per_row_seed_sequence_loop(monkeypatch, kind,
                                                                pauli_randomize, seed):
    # the re-keyed generator starts every row where a new Philox would; at
    # these rates and at a 500 Hz offset rows flip and leak
    if kind == "parametric":
        model, lengths, n_sequences = ParametricModel(3e-2, 1e-2), [2, 7, 50], 6
    else:
        model, lengths, n_sequences = FullScheduleModel(walsh_gate(500.0)), [1, 8, 32], 4
    seen = []
    batch = slerb._probabilities
    monkeypatch.setattr(slerb, "_probabilities",
                        lambda seqs, model: seen.extend(seqs) or batch(seqs, model))
    data = collect_dataset(lengths, n_sequences, 100, model, seed, pauli_randomize)
    monkeypatch.undo()
    draws, counts = per_row_seed_sequence_dataset(lengths, n_sequences, 100, model, seed,
                                                  pauli_randomize)
    assert [(list(q.cliffords), q.expected_state) for q in seen] == draws
    assert np.array_equal(np.column_stack([data.n_survival, data.n_flip, data.n_leak]), counts)
    assert data.n_flip.sum() + data.n_leak.sum() > 0
    assert {q.expected_state for q in seen} == ({"uu", "dd"} if pauli_randomize else {"uu"})


@pytest.mark.parametrize("seed", [-1, True, False, 1.0, "1", None, np.int64(-3)])
def test_collect_dataset_rejects_seeds_that_are_not_ints_from_zero(seed):
    with pytest.raises(ParameterError, match="seed"):
        collect_dataset([1, 2, 3], 2, 10, ParametricModel(1e-3, 1e-3), seed)


def test_collect_dataset_takes_numpy_integer_seeds():
    model = ParametricModel(3e-2, 1e-2)
    plain = collect_dataset([2, 7, 50], 3, 100, model, 7)
    for seed in (np.int64(7), np.uint32(7)):
        assert np.array_equal(collect_dataset([2, 7, 50], 3, 100, model, seed).n_flip,
                              plain.n_flip)


def test_full_model_dataset_calls_no_linalg_routine(monkeypatch):
    # one LAPACK call wakes the BLAS worker threads, which then slow the
    # single-threaded stepping; the exact blocks need matrix products alone
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called on the SLERB path")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    data = collect_dataset([1, 8, 32], 3, 50, FullScheduleModel(walsh_gate()), seed=2)
    assert data.n.size == 9


@pytest.mark.parametrize("kind", ["parametric", "full"])
def test_collect_dataset_makes_one_model_call(monkeypatch, kind):
    model = (ParametricModel(1e-3, 5e-4) if kind == "parametric"
             else FullScheduleModel(walsh_gate()))
    calls = []
    batch = slerb._probabilities

    def counted(seqs, model):
        calls.append(len(seqs))
        return batch(seqs, model)

    monkeypatch.setattr(slerb, "_probabilities", counted)
    data = collect_dataset([1, 4, 9], n_sequences=5, shots=20, model=model, seed=3)
    assert calls == [15]
    assert data.n.size == 15


# ---------------------------------------------------------------------------
# datasets


def test_dataset_validation():
    with pytest.raises(ParameterError):
        SlerbDataset.from_columns([2, 2], [0, 1], [10, 10], [9, 9], [1, 2], [0, 0])
    with pytest.raises(ParameterError, match="lengths"):
        SlerbDataset.from_columns([0, 2], [0, 0], [10, 10], [9, 9], [1, 1], [0, 0])
    data = SlerbDataset.from_columns([2, 2, 8, 8], [0, 1, 0, 1], [10] * 4,
                                     [9, 10, 7, 8], [1, 0, 2, 1], [0, 0, 1, 1])
    assert list(data.lengths) == [2, 8]
    short = data.truncated(4)
    assert list(short.lengths) == [2]
    with pytest.raises(GridError):
        data.truncated(1)


def test_dataset_rejects_zero_shot_rows():
    with pytest.raises(ParameterError, match="shots"):
        SlerbDataset.from_columns([2], [0], [0], [0], [0], [0])
    with pytest.raises(ParameterError, match="shots"):
        SlerbDataset.from_columns([2, 8, 20], [0, 0, 0], [10, 0, 10], [9, 0, 7], [1, 0, 2],
                                  [0, 0, 1])


@pytest.mark.parametrize("column", [0, 3], ids=["N", "n_survival"])
@pytest.mark.parametrize("bad", [0.5, np.nan, np.inf], ids=["fractional", "nan", "inf"])
def test_dataset_rejects_non_integral_cells(column, bad):
    cols = [[2, 8, 20], [0, 0, 0], [10] * 3, [9, 8, 7], [1, 1, 2], [0, 1, 1]]
    cols[column][1] += bad
    with pytest.raises(ParameterError):
        SlerbDataset.from_columns(*cols)


def test_collect_dataset_shapes_and_determinism():
    model = ParametricModel(1e-3, 5e-4)
    a = collect_dataset([2, 20, 60], n_sequences=5, shots=30, model=model, seed=11)
    b = collect_dataset([2, 20, 60], n_sequences=5, shots=30, model=model, seed=11)
    assert np.array_equal(a.n_survival, b.n_survival)
    assert a.n.size == 15
    assert np.all(a.n_survival + a.n_flip + a.n_leak == 30)


# ---------------------------------------------------------------------------
# fits


def exact_model_dataset(eps_rb, eps_leak, lengths, shots=10**7):
    # counts proportional to the exact decay model, two copies per length
    rows_n, rows_id, surv, flip, leak = [], [], [], [], []
    for n in lengths:
        big_l = 0.5 * (1.0 + (1.0 - 2.0 * eps_leak) ** n)
        c = ((1.0 - eps_leak) * (1.0 - 2.0 * eps_rb)) ** n
        p_s, p_f = 0.5 * (big_l + c), 0.5 * (big_l - c)
        n_s, n_f = round(p_s * shots), round(p_f * shots)
        for sid in range(2):
            rows_n.append(n)
            rows_id.append(sid)
            surv.append(n_s)
            flip.append(n_f)
            leak.append(shots - n_s - n_f)
    return SlerbDataset.from_columns(rows_n, rows_id, [shots] * len(rows_n),
                                     surv, flip, leak)


def test_fit_recovers_exact_model_rates():
    data = exact_model_dataset(2e-4, 1e-4, [2, 30, 100, 300, 800])
    fit = fit_decays(data)
    assert fit.eps_rb == pytest.approx(2e-4, rel=5e-3)
    assert fit.eps_leak == pytest.approx(1e-4, rel=5e-3)
    assert fit.eps_flip == pytest.approx(fit.eps_rb, rel=2e-2)
    assert fit.eps_2q == pytest.approx((1.2 * fit.eps_rb + 0.8 * fit.eps_leak) * 6 / 13)


def test_leak_curve_small_length_slope_equals_rate():
    eps = 1e-4
    data = exact_model_dataset(0.0, eps, [1, 10, 50, 100, 200, 400])
    fit = fit_decays(data)
    lengths = np.array([1.0, 10.0, 100.0, 400.0])
    p_leak = 0.5 * (1.0 - (1.0 - 2.0 * fit.eps_leak) ** lengths)
    assert p_leak == pytest.approx(lengths * eps, rel=0.05)


def test_fit_zero_error_data_returns_zero_rates():
    data = exact_model_dataset(0.0, 0.0, [2, 50, 200], shots=1000)
    fit = fit_decays(data)
    assert fit.eps_rb == 0.0
    assert fit.eps_leak == 0.0
    assert fit.eps_2q == 0.0


def test_fit_requires_three_lengths():
    data = exact_model_dataset(1e-4, 1e-4, [2, 50])
    with pytest.raises(GridError):
        fit_decays(data)
    full = exact_model_dataset(1e-4, 1e-4, [2, 50, 100, 400])
    with pytest.raises(GridError):
        fit_decays(full.truncated(60))


def test_inject_recover_unbiased_over_trials():
    model = ParametricModel(eps_rb=2e-3, eps_leak=1e-3)
    rb, lk = [], []
    for s in range(10):
        d = collect_dataset([2, 40, 120, 300, 700], n_sequences=40, shots=200,
                            model=model, seed=100 + s)
        f = fit_decays(d)
        rb.append(f.eps_rb)
        lk.append(f.eps_leak)
    assert np.mean(rb) == pytest.approx(2e-3, rel=0.03)
    assert np.mean(lk) == pytest.approx(1e-3, rel=0.03)


def test_fit_residuals_sit_at_shot_noise():
    chis = []
    for s in range(15):
        d = collect_dataset([2, 50, 150, 400, 900], n_sequences=30, shots=100,
                            model=ParametricModel(2e-3, 1e-3), seed=8000 + s)
        f = fit_decays(d)
        lengths = d.lengths
        tot, n_surv, n_flip = (np.array([col[d.n == m].sum() for m in lengths])
                               for col in (d.shots, d.n_survival, d.n_flip))
        y = 1.0 - n_surv / tot - n_flip / tot
        model_leak = 0.5 * (1.0 - (1.0 - 2.0 * f.eps_leak) ** lengths.astype(float))
        var = np.maximum(model_leak * (1.0 - model_leak), 1.0 / (2.0 * tot)) / tot
        chis.append(np.sum((y - model_leak) ** 2 / var) / (lengths.size - 1))
    assert 0.5 < np.median(chis) < 1.5


def test_truncation_is_flat_on_markovian_data():
    d = collect_dataset([2, 50, 150, 400, 900], n_sequences=50, shots=100,
                        model=ParametricModel(2e-3, 1e-3), seed=31)
    vals = np.array([fit_decays(d.truncated(m)).eps_2q for m in (150, 400, 900)])
    assert np.ptp(vals) < 0.1 * vals.mean()


@pytest.mark.parametrize("rates", [(1.5e-4, 8e-5), (1e-3, 0.0), (2e-2, 1e-2), (0.1, 0.0),
                                   (2e-4, 1e-4)])
def test_eps_flip_is_the_initial_slope_of_the_flip_curve(rates):
    # P_flip(N) = (L(N) - c(N)) / 2 extends to real N; its slope at N = 0,
    # by central difference, is eps_flip at the fitted rates
    fit = DecayFit(*rates)
    if rates == (2e-4, 1e-4):
        fit = fit_decays(exact_model_dataset(*rates, [2, 30, 100, 300, 800]))
    b = 1.0 - 2.0 * fit.eps_leak
    a = (1.0 - fit.eps_leak) * (1.0 - 2.0 * fit.eps_rb)

    def p_flip(n):
        return 0.5 * (0.5 * (1.0 + b**n) - a**n)

    h = 1e-4
    slope = (p_flip(h) - p_flip(-h)) / (2.0 * h)
    assert fit.eps_flip == pytest.approx(slope, rel=1e-7, abs=0.0)


def test_decay_fit_validation_and_eps2q():
    with pytest.raises(ParameterError):
        DecayFit(eps_rb=-1e-4, eps_leak=0.0)
    fit = DecayFit(eps_rb=1e-3, eps_leak=0.0)
    assert fit.eps_2q == pytest.approx(5.538e-4, rel=1e-3)
    zero = DecayFit(0.0, 0.0)
    assert zero.eps_2q == 0.0
    near_paper = DecayFit(eps_rb=1.5e-4, eps_leak=8e-5)
    assert near_paper.eps_2q == pytest.approx(1.13e-4, rel=0.02)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_interval_covers_for_typical_dataset():
    model = ParametricModel(eps_rb=2e-3, eps_leak=1e-3)
    d = collect_dataset([2, 40, 120, 300, 700], n_sequences=40, shots=200,
                        model=model, seed=104)
    ci = bootstrap_ci(d, resamples=500, seed=9)
    assert set(ci) == {"eps_rb", "eps_leak", "eps_2q"}
    for lo, hi in ci.values():
        assert lo <= hi
    assert ci["eps_rb"][0] < 2e-3 < ci["eps_rb"][1]
    assert ci["eps_leak"][0] < 1e-3 < ci["eps_leak"][1]


def test_bootstrap_deterministic_under_seed():
    d = collect_dataset([2, 40, 150], n_sequences=10, shots=50,
                        model=ParametricModel(2e-3, 1e-3), seed=1)
    assert bootstrap_ci(d, resamples=200, seed=5) == bootstrap_ci(d, resamples=200, seed=5)


def test_bootstrap_zero_variance_gives_zero_width():
    data = exact_model_dataset(0.0, 0.0, [2, 50, 200], shots=100)
    ci = bootstrap_ci(data, resamples=150, seed=2)
    for lo, hi in ci.values():
        assert lo == hi == 0.0


def test_bootstrap_errors():
    data = exact_model_dataset(1e-4, 1e-4, [2, 50, 200])
    with pytest.raises(ParameterError):
        bootstrap_ci(data, resamples=50, seed=1)
    single = SlerbDataset.from_columns([2, 50, 200], [0, 0, 0], [10] * 3,
                                       [10, 9, 8], [0, 1, 1], [0, 0, 1])
    with pytest.raises(DomainError):
        bootstrap_ci(single, resamples=200, seed=1)


def per_resample_bootstrap(data, resamples, seed):
    """Oracle: draw each length's (resamples, m) block as the batch does, then
    refit every resample with fit_decays, one at a time."""
    rng = slerb._rng(seed)
    picks = [rng.choice(rows, size=(resamples, rows.size))
             for rows in (np.flatnonzero(data.n == length) for length in data.lengths)]
    rates = np.empty((resamples, 3))
    for i in range(resamples):
        pick = np.concatenate([block[i] for block in picks])
        fit = fit_decays(SlerbDataset(*(np.asarray(c)[pick] for c in (
            data.n, data.sequence_id, data.shots,
            data.n_survival, data.n_flip, data.n_leak))))
        rates[i] = (fit.eps_rb, fit.eps_leak, fit.eps_2q)
    return {key: tuple(float(v) for v in np.percentile(col, [16.0, 84.0]))
            for key, col in zip(("eps_rb", "eps_leak", "eps_2q"), rates.T)}


def uneven_dataset(seed):
    """Unequal row counts per length and a different shot count in every row."""
    rng = np.random.default_rng(seed)
    lengths = np.repeat([2, 40, 120, 300], [3, 11, 7, 16])
    shots = rng.integers(20, 400, size=lengths.size)
    leak = rng.binomial(shots, 2e-4 * lengths)
    flip = rng.binomial(shots - leak, 3e-4 * lengths)
    return SlerbDataset.from_columns(lengths, np.arange(lengths.size), shots,
                                     shots - leak - flip, flip, leak)


@pytest.mark.parametrize("data", [
    collect_dataset([2, 40, 120, 300], n_sequences=25, shots=100,
                    model=ParametricModel(2e-3, 1e-3), seed=77),
    uneven_dataset(5),  # each resample is weighted by its own shot totals
    uneven_dataset(6),
], ids=["equal", "uneven-0", "uneven-1"])
def test_bootstrap_slow_path_agrees_with_fast_path(data):
    fast = bootstrap_ci(data, resamples=300, seed=4)
    slow = per_resample_bootstrap(data, resamples=300, seed=4)
    for key in fast:
        assert fast[key] == pytest.approx(slow[key], rel=1e-9, abs=0.0)


def choice_sums(data, resamples, seed):
    """Reference resampling: rng.choice over each length's row indices,
    returning the (3, n_lengths, resamples) sums of shots, survivals and
    flips and the (resamples, n_lengths) survival and flip fractions."""
    rng = slerb._rng(seed)
    sums, f_surv, f_flip = [], [], []
    for length in data.lengths:
        rows = np.flatnonzero(data.n == length)
        pick = rng.choice(rows, size=(resamples, rows.size))
        shots = data.shots[pick].sum(axis=1)
        surv, flip = data.n_survival[pick].sum(axis=1), data.n_flip[pick].sum(axis=1)
        sums.append((shots, surv, flip))
        f_surv.append(surv / shots)
        f_flip.append(flip / shots)
    return np.array(sums).swapaxes(0, 1), np.array(f_surv).T, np.array(f_flip).T


def assert_fit_inputs_match_choice_draws(monkeypatch, data, resamples, seed):
    """The fit's integer sums, joined over its blocks along the resample
    axis, are the rng.choice sums bit for bit, and so are the fractions
    formed from them."""
    seen = []
    fit = slerb._fit_rates_batch

    def capture(lengths, sums):
        seen.append(sums.copy())
        return fit(lengths, sums)

    monkeypatch.setattr(slerb, "_fit_rates_batch", capture)
    bootstrap_ci(data, resamples=resamples, seed=seed)
    sums, f_surv, f_flip = choice_sums(data, resamples, seed)
    seen = np.concatenate(seen, axis=2)
    assert seen.dtype == np.int64
    assert np.array_equal(seen, sums)
    tot = seen[0].astype(float)
    assert np.array_equal(seen[1] / tot, f_surv.T)
    assert np.array_equal(seen[2] / tot, f_flip.T)


@pytest.mark.parametrize("data", [
    collect_dataset([2, 40, 150], n_sequences=9, shots=50,
                    model=ParametricModel(2e-3, 1e-3), seed=3),
    uneven_dataset(5),
    uneven_dataset(6),
    # rows x shots of 2**23: two packed fields to a word
    collect_dataset([2, 40, 150], n_sequences=4, shots=2 ** 21,
                    model=ParametricModel(2e-3, 1e-3), seed=5),
    # rows x shots just below the 2**53 guard: one field to a word
    collect_dataset([2, 40, 150], n_sequences=3, shots=(2 ** 53 - 1) // 3,
                    model=ParametricModel(2e-3, 1e-3), seed=5),
], ids=["equal", "uneven-0", "uneven-1", "two-per-word", "one-per-word"])
def test_bootstrap_fractions_match_choice_draws_bit_for_bit(monkeypatch, data):
    assert_fit_inputs_match_choice_draws(monkeypatch, data, 400, 11)


def test_blocked_draws_match_choice_draws_across_blocks(monkeypatch):
    # two full blocks and a partial one, on rows of unequal count and shots
    assert_fit_inputs_match_choice_draws(monkeypatch, uneven_dataset(5),
                                         2 * slerb.RESAMPLE_BLOCK + 37, 11)


def test_block_layout_does_not_change_intervals(monkeypatch):
    data = uneven_dataset(5)
    resamples = 3 * slerb.RESAMPLE_BLOCK + 37
    blocked = bootstrap_ci(data, resamples=resamples, seed=11)
    monkeypatch.setattr(slerb, "RESAMPLE_BLOCK", resamples)
    whole = bootstrap_ci(data, resamples=resamples, seed=11)
    for key in whole:
        assert blocked[key] == pytest.approx(whole[key], rel=1e-12, abs=0.0)


def test_bootstrap_memory_stays_near_stored_fractions():
    # the sums stored per length and resample are all that grows with the
    # resample count; the fit's temporaries are per block
    d = collect_dataset([2, 50, 150, 300, 500], n_sequences=50, shots=100,
                        model=ParametricModel(1.5e-4, 8e-5), seed=3)
    resamples = 20_000
    stored = 3 * d.lengths.size * resamples * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        bootstrap_ci(d, resamples=resamples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stored


def row_major_gauss_newton(lengths, y, variance_fn, forward, jacobian, x0, lo, hi):
    """The (batch, n_lengths) Gauss-Newton fit, reducing over axis 1."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    for _ in range(80):
        f = forward(x[:, None], lengths[None, :])
        jac = jacobian(x[:, None], lengths[None, :])
        w = 1.0 / variance_fn(f)
        num = np.sum(w * jac * (y - f), axis=1)
        den = np.sum(w * jac * jac, axis=1)
        step = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        x = np.clip(x + step, lo, hi)
        if np.all(np.abs(step) < 1e-14):
            break
    return x


def row_major_fit_rates(lengths, f_surv, f_flip, tot):
    """Reference two-stage fit over (batch, n_lengths) fractions and totals."""
    n_shots = tot
    var_floor = 1.0 / (2.0 * n_shots)
    f_leak = 1.0 - f_surv - f_flip
    b = row_major_gauss_newton(
        lengths, f_leak, lambda f: np.maximum(f * (1.0 - f), var_floor) / n_shots,
        lambda x, n: 0.5 * (1.0 - x**n), lambda x, n: -0.5 * n * x ** (n - 1.0),
        1.0 - 2.0 * np.clip(f_leak[:, -1] / lengths[-1], 1e-12, 0.49), 0.0, 1.0)
    eps_leak = 0.5 * (1.0 - b)
    z = f_surv - f_flip
    big_l = 0.5 * (1.0 + b[:, None] ** lengths[None, :])
    a = row_major_gauss_newton(
        lengths, z, lambda f: np.maximum(big_l - f**2, var_floor) / n_shots,
        lambda x, n: x**n, lambda x, n: n * x ** (n - 1.0),
        np.clip(np.abs(z[:, -1]), 1e-12, 1.0) ** (1.0 / lengths[-1]), 0.0, 1.0)
    eps_rb = np.clip(0.5 * (1.0 - a / np.maximum(1.0 - eps_leak, 1e-12)), 0.0, None)
    return eps_rb, eps_leak


@pytest.mark.parametrize("seed, rates", [
    pytest.param(1, (1.5e-4, 8e-5), id="1"),
    pytest.param(2, (1.5e-4, 8e-5), id="2"),
    pytest.param(3, (2e-3, 1e-3), id="rb2e-3-leak1e-3"),
    pytest.param(4, (0.02, 0.01), id="rb0.02-leak0.01"),
    # leak-free data: stage 1 sees exactly 1 at every length, the edge of its start
    pytest.param(5, (0.1, 0.0), id="rb0.1-leak0"),
])
def test_lengths_major_fit_matches_row_major_reference(seed, rates):
    d = collect_dataset([2, 50, 150, 300, 500], n_sequences=30, shots=100,
                        model=ParametricModel(*rates), seed=seed)
    sums, f_surv, f_flip = choice_sums(d, 2000, seed)
    lengths = d.lengths.astype(float)
    eps_rb, eps_leak = slerb._fit_rates_batch(lengths, sums)
    ref_rb, ref_leak = row_major_fit_rates(lengths, f_surv, f_flip, sums[0].T.astype(float))
    assert eps_rb.shape == eps_leak.shape == (2000,)
    assert np.all(eps_rb > 0)
    assert np.all(eps_leak > 0) if rates[1] > 0 else np.all(eps_leak == 0)
    assert eps_rb == pytest.approx(ref_rb, rel=1e-12, abs=0.0)
    assert eps_leak == pytest.approx(ref_leak, rel=1e-12, abs=0.0)


def test_doubling_shots_shrinks_interval_width():
    model = ParametricModel(eps_rb=2e-3, eps_leak=1e-3)
    widths = {}
    for shots in (100, 400):
        ws = []
        for s in range(6):
            d = collect_dataset([2, 40, 120, 300, 700], n_sequences=30,
                                shots=shots, model=model, seed=600 + s)
            lo, hi = bootstrap_ci(d, resamples=300, seed=s)["eps_rb"]
            ws.append(hi - lo)
        widths[shots] = np.median(ws)
    # quadrupling shots should halve the width, within Monte Carlo slack
    assert widths[100] / widths[400] == pytest.approx(2.0, rel=0.35)
