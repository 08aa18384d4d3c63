"""Coherent over-rotation model and fidelity sweeps."""
import math

import numpy as np
import pytest

from dickesim import (
    EXPANSION_LAYOUT,
    FidelityMode,
    apply_circuit,
    build_d4_to_d5_circuit,
    dicke_state,
    fidelity_pure,
    fidelity_sweep,
    new_basis_state,
    noisify_circuit,
    noisify_gate,
    postselect,
    rx_matrix,
    tensor,
)
from dickesim import gates, noise, sim
from dickesim.cli import Table
from dickesim.gates import is_unitary


def test_noisified_cnot_at_zero_is_ideal():
    gate = noisify_gate(gates.cnot(0, 1), 0.0)
    np.testing.assert_array_equal(gate.matrix, gates.X_MATRIX)
    assert gate.controls == (0,)


def test_noisified_ch_composes_rotation_after_h():
    theta = 0.37
    gate = noisify_gate(gates.ch(0, 1), theta)
    np.testing.assert_allclose(gate.matrix, rx_matrix(theta) @ gates.H_MATRIX, atol=0)


def test_uncontrolled_gates_stay_ideal():
    gate = gates.x(2)
    assert noisify_gate(gate, 0.2) is gate


def test_noisified_gates_stay_unitary():
    rng = np.random.default_rng(47)
    for theta in rng.uniform(-math.pi, math.pi, size=30):
        assert is_unitary(noisify_gate(gates.ccnot(0, 1, 2), float(theta)).matrix)


def test_angle_bounds():
    with pytest.raises(ValueError):
        noisify_gate(gates.cnot(0, 1), 3.5)
    with pytest.raises(ValueError):
        fidelity_sweep([0.0, 4.0])


def test_noisify_circuit_at_zero_is_exact_identity():
    circuit = build_d4_to_d5_circuit()
    noisy = noisify_circuit(circuit, 0.0)
    assert len(noisy.gates) == len(circuit.gates)
    for original, modified in zip(circuit.gates, noisy.gates):
        np.testing.assert_array_equal(modified.matrix, original.matrix)
        assert modified.label == original.label


def test_noisify_circuit_touches_every_controlled_gate():
    circuit = build_d4_to_d5_circuit()
    noisy = noisify_circuit(circuit, 0.01)
    changed = 0
    for original, modified in zip(circuit.gates, noisy.gates):
        assert modified.controls == original.controls
        assert modified.target == original.target
        assert modified.label == original.label
        if not np.array_equal(modified.matrix, original.matrix):
            changed += 1
            assert original.controls
        else:
            assert not original.controls
    # 4 CNOT + 1 CH + 9 CCNOT + 2 CCCNOT; the 13 uncontrolled gates stay ideal
    assert changed == 16


def test_repeated_noisification_accumulates_the_angle():
    # rotations about a fixed axis compose additively, so noisifying twice
    # equals one application at the summed angle (up to rounding)
    gate = gates.cnot(0, 1)
    twice = noisify_gate(noisify_gate(gate, 0.03), 0.04)
    once = noisify_gate(gate, 0.07)
    np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-15)


def test_sweep_fidelity_at_zero_is_one():
    for mode in FidelityMode:
        rows = fidelity_sweep([0.0], mode=mode)
        assert rows[0].fidelity == pytest.approx(1.0, abs=1e-12)


def test_sweep_anchor_at_0_01():
    for mode in FidelityMode:
        rows = fidelity_sweep([0.01], mode=mode)
        assert rows[0].fidelity >= 0.99


def test_sweep_decays_from_0_01_to_0_1():
    for mode in FidelityMode:
        rows = fidelity_sweep([0.01, 0.1], mode=mode)
        assert rows[1].fidelity <= rows[0].fidelity


def test_sweep_fidelity_ceiling():
    grid = [-math.pi, -1.0, -0.3, 0.3, 1.0, math.pi]
    for mode in FidelityMode:
        for row in fidelity_sweep(grid, mode=mode):
            assert 0.0 <= row.fidelity <= 1.0 + 1e-12


def test_sweep_sign_symmetry_is_recorded_not_asserted():
    # the model makes no promise that F(theta) equals F(-theta); both values
    # are computed here and only the bounds are checked
    rows = fidelity_sweep([0.05, -0.05])
    for row in rows:
        assert 0.0 <= row.fidelity <= 1.0 + 1e-12


def test_sweep_preserves_grid_order():
    grid = [0.1, 0.0, 0.05]
    rows = fidelity_sweep(grid)
    assert [row.theta for row in rows] == grid


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        fidelity_sweep([])


# ---------------------------------------------------------------------------
# the batched sweep against one circuit run per angle


def per_angle_sweep(grid, mode):
    """Fidelities from one noisified circuit and one StateVector per angle."""
    circuit = build_d4_to_d5_circuit()
    source = tensor(dicke_state(4, 2), new_basis_state(2, "00"))
    flag = EXPANSION_LAYOUT.index(EXPANSION_LAYOUT.flag)
    post_selected = mode is FidelityMode.POST_SELECTED_SUCCESS
    ideal = apply_circuit(source, circuit)
    if post_selected:
        _, ideal = postselect(ideal, flag, 0)
    fidelities = []
    for theta in grid:
        noisy = apply_circuit(source, noisify_circuit(circuit, theta))
        if post_selected:
            _, noisy = postselect(noisy, flag, 0)
        fidelities.append(fidelity_pure(ideal, noisy))
    return fidelities


def seeded_grids():
    rng = np.random.default_rng(2718)
    near_pi = math.nextafter(math.pi, 0.0)
    grids = [[0.0], [math.pi], [-math.pi], [near_pi], [-near_pi, 0.0, near_pi]]
    for _ in range(5):
        low, high = sorted(rng.uniform(-math.pi, math.pi, 2))
        grids.append(np.linspace(low, high, int(rng.integers(2, 50))).tolist())
    grids.append(rng.uniform(-math.pi, math.pi, 37).tolist())  # unsorted
    grids.append(rng.uniform(-0.1, 0.1, 21).tolist())
    return grids


@pytest.mark.parametrize("mode", list(FidelityMode))
def test_batched_sweep_matches_per_angle_runs(mode):
    for grid in seeded_grids():
        rows = fidelity_sweep(grid, mode=mode)
        assert [row.theta for row in rows] == grid
        np.testing.assert_allclose(
            [row.fidelity for row in rows], per_angle_sweep(grid, mode), rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("chunk", [1, 7, 32, 1000])
def test_sweep_does_not_depend_on_chunk_size(monkeypatch, chunk):
    # chunks are not bit-identical to each other (a chunk's shape may change
    # how its arithmetic is blocked), but the rows agree and so does the CSV
    grid = np.linspace(-0.1, 0.1, 101)
    expected = {mode: fidelity_sweep(grid, mode=mode) for mode in FidelityMode}
    monkeypatch.setattr(sim, "BATCH_CHUNK", chunk)
    for mode in FidelityMode:
        rows = fidelity_sweep(grid, mode=mode)
        assert [row.theta for row in rows] == [row.theta for row in expected[mode]]
        np.testing.assert_allclose(
            [row.fidelity for row in rows],
            [row.fidelity for row in expected[mode]],
            rtol=0,
            atol=1e-15,
        )
        columns = ("theta", "fidelity")
        assert Table(columns, rows).csv() == Table(columns, expected[mode]).csv()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 3.5, -math.pi - 1e-9])
@pytest.mark.parametrize("position", [0, 20, 99])
def test_sweep_rejects_a_bad_angle_anywhere_before_any_work(monkeypatch, bad, position):
    # position 99 lies in the last chunk; no chunk may run before the check
    grid = np.linspace(-0.1, 0.1, 100).tolist()
    grid[position] = bad

    def no_work(*args):
        raise AssertionError("the kernel ran before every angle was checked")

    monkeypatch.setattr(noise, "_evolve", no_work)
    with pytest.raises(ValueError, match="over-rotation angle"):
        fidelity_sweep(grid)
