"""Coherent over-rotation model and fidelity sweeps."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import gates, noise, sim
from dickesim.dicke import dicke_state
from dickesim.gates import is_unitary, rx_matrix
from dickesim.noise import FidelityMode, fidelity_sweep, noisify_circuit, noisify_gate
from dickesim.protocols import EXPANSION_LAYOUT, build_d4_to_d5_circuit
from dickesim.sim import apply_circuit, fidelity_pure, new_basis_state, postselect, tensor


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
        fidelities = fidelity_sweep([0.0], mode=mode)
        assert fidelities[0] == pytest.approx(1.0, abs=1e-12)


def test_sweep_anchor_at_0_01():
    for mode in FidelityMode:
        fidelities = fidelity_sweep([0.01], mode=mode)
        assert fidelities[0] >= 0.99


def test_sweep_decays_from_0_01_to_0_1():
    for mode in FidelityMode:
        fidelities = fidelity_sweep([0.01, 0.1], mode=mode)
        assert fidelities[1] <= fidelities[0]


def test_sweep_fidelity_ceiling():
    grid = [-math.pi, -1.0, -0.3, 0.3, 1.0, math.pi]
    for mode in FidelityMode:
        for fidelity in fidelity_sweep(grid, mode=mode):
            assert 0.0 <= fidelity <= 1.0 + 1e-12


def test_sweep_sign_symmetry_is_recorded_not_asserted():
    # the model makes no promise that F(theta) equals F(-theta); both values
    # are computed here and only the bounds are checked
    fidelities = fidelity_sweep([0.05, -0.05])
    for fidelity in fidelities:
        assert 0.0 <= fidelity <= 1.0 + 1e-12


def test_sweep_preserves_grid_order():
    # one float64 fidelity per angle, each the value of that angle alone
    grid = [0.1, 0.0, 0.05]
    fidelities = fidelity_sweep(grid)
    assert fidelities.dtype == np.float64 and fidelities.shape == (len(grid),)
    assert fidelities.tolist() == [fidelity_sweep([theta])[0] for theta in grid]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        fidelity_sweep([])


def test_sweep_rejects_a_grid_that_is_not_one_dimensional():
    for grid in (0.05, [[0.0, 0.05]], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="one-dimensional"):
            fidelity_sweep(grid)


@pytest.mark.parametrize(
    "grid",
    [
        np.array([0.05 + 0.02j, 0.01]),  # was read as its real part
        [0.05 + 0j],
        [True, False],  # was read as 1 rad and 0 rad
        ["0.05"],  # was parsed as a float
    ],
)
def test_sweep_rejects_a_grid_that_is_not_real(grid):
    with pytest.raises(ValueError, match="^theta grid must hold real numbers, got dtype "):
        fidelity_sweep(grid)


def test_sweep_reads_integer_and_float_grids_alike():
    for mode in FidelityMode:
        by_float = fidelity_sweep([0.0, 1.0, 3.0], mode=mode).tobytes()
        for dtype in (int, np.int8, np.uint16):
            grid = np.array([0, 1, 3], dtype=dtype)
            assert fidelity_sweep(grid.tolist(), mode=mode).tobytes() == by_float
            assert fidelity_sweep(grid, mode=mode).tobytes() == by_float


def test_sweep_takes_a_list_or_an_array_alike():
    # an array grid is read, not copied through a list, and left as it was;
    # a bad angle is named as a plain float either way
    grid = np.linspace(-0.1, 0.1, 7)
    before = grid.tobytes()
    for mode in FidelityMode:
        from_array = fidelity_sweep(grid, mode=mode)
        assert from_array.tobytes() == fidelity_sweep(grid.tolist(), mode=mode).tobytes()
    assert grid.tobytes() == before
    for bad in ([0.0, 4.0], np.array([0.0, 4.0]), np.array([0.0, 4.0], dtype=np.float32)):
        with pytest.raises(ValueError, match=r"^over-rotation angle 4\.0 outside"):
            fidelity_sweep(bad)


def test_sweep_mode_is_a_fidelity_mode_or_its_value():
    grid = [0.0, 0.05, -0.1]
    for mode in FidelityMode:
        by_value = fidelity_sweep(grid, mode=mode.value)
        assert by_value.tobytes() == fidelity_sweep(grid, mode=mode).tobytes()


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
        fidelities = fidelity_sweep(grid, mode=mode)
        assert len(fidelities) == len(grid)
        np.testing.assert_allclose(fidelities, per_angle_sweep(grid, mode), rtol=0, atol=1e-14)


@pytest.fixture
def fresh_fit():
    """An empty fit memo before the test and after it, so a fit made under
    the test's patches is never seen by a later test."""
    noise._expansion_fit.cache_clear()
    yield
    noise._expansion_fit.cache_clear()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 3.5, -math.pi - 1e-9])
@pytest.mark.parametrize("position", [0, 20, 99])
def test_sweep_rejects_a_bad_angle_anywhere_before_any_work(monkeypatch, bad, position):
    # position 99 is the grid's last angle; no kernel call may run before the check
    grid = np.linspace(-0.1, 0.1, 100).tolist()
    grid[position] = bad

    def no_work(*args):
        raise AssertionError("the kernel ran before every angle was checked")

    monkeypatch.setattr(noise, "_evolve", no_work)
    with pytest.raises(ValueError, match="over-rotation angle"):
        fidelity_sweep(grid)


@settings(max_examples=40)
@given(
    st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8),
    st.sampled_from(list(FidelityMode)),
)
def test_spectral_sweep_matches_per_angle_runs_on_random_grids(grid, mode):
    fidelities = fidelity_sweep(grid, mode=mode)
    np.testing.assert_allclose(fidelities, per_angle_sweep(grid, mode), rtol=0, atol=1e-14)


@settings(max_examples=60)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=40), st.data())
def test_one_angle_sweep_equals_that_angle_in_any_grid(grid, data):
    i = data.draw(st.integers(0, len(grid) - 1))
    for mode in FidelityMode:
        (alone,) = fidelity_sweep([grid[i]], mode=mode)
        inside = fidelity_sweep(grid, mode=mode)[i]
        assert alone.hex() == inside.hex()


def _sweep_with_temporaries(grid, mode):
    """fidelity_sweep's arithmetic with a fresh array for every step, as in
    ``np.abs(overlap) ** 2 / probs``."""
    branch_norm, overlap, branch_overlap = noise._expansion_fit()
    thetas = np.asarray(grid, dtype=float)
    z = np.exp(0.5j * (thetas.repeat(2) if thetas.size == 1 else thetas))
    probs = 1.0
    if FidelityMode(mode) is FidelityMode.POST_SELECTED_SUCCESS:
        probs = noise._horner(branch_norm, z).real
        overlap = branch_overlap
    return (np.abs(noise._horner(overlap, z)) ** 2 / probs)[: thetas.size]


@pytest.mark.parametrize("mode", list(FidelityMode))
def test_sweep_in_place_arithmetic_keeps_every_bit(mode):
    rng = np.random.default_rng(3101)
    for size in (1, 2, 3, 226, 4097):
        grid = rng.uniform(-math.pi, math.pi, size)
        expected = _sweep_with_temporaries(grid, mode)
        assert fidelity_sweep(grid, mode=mode).tobytes() == expected.tobytes()


def test_sweep_at_max_steps_matches_per_angle_runs():
    grid = np.linspace(-math.pi, math.pi, 100_000)
    picked = np.random.default_rng(1009).choice(len(grid), 20, replace=False)
    for mode in FidelityMode:
        fidelities = fidelity_sweep(grid, mode=mode)
        assert len(fidelities) == len(grid)
        np.testing.assert_allclose(
            fidelities[picked],
            per_angle_sweep(grid[picked].tolist(), mode),
            rtol=0,
            atol=1e-14,
        )


def test_kernel_runs_2d_plus_1_states_once_per_process_whatever_the_grid(
    evolved_states, fresh_fit
):
    # in total: the ideal output is node theta_0 = 0, not a run of its own
    degree = sum(1 for gate in build_d4_to_d5_circuit().gates if gate.controls)
    calls = [(steps, mode) for steps in (1, 226, 100_000) for mode in FidelityMode]
    for first_steps, first_mode in calls:
        noise._expansion_fit.cache_clear()
        evolved_states.clear()
        fidelity_sweep(np.linspace(-0.1, 0.1, first_steps), mode=first_mode)
        assert sum(evolved_states) == 2 * degree + 1 == 33
        for steps, mode in calls:
            evolved_states.clear()
            fidelity_sweep(np.linspace(-0.1, 0.1, steps), mode=mode)
            assert sum(evolved_states) == 0


def test_bad_angle_is_rejected_before_the_fit(fresh_fit):
    with pytest.raises(ValueError, match="over-rotation angle"):
        fidelity_sweep([0.0, math.nan])
    assert noise._expansion_fit.cache_info().currsize == 0


def test_bad_mode_is_rejected_before_the_fit(fresh_fit):
    with pytest.raises(ValueError, match="'bogus' is not a valid FidelityMode"):
        fidelity_sweep([0.0], mode="bogus")
    assert noise._expansion_fit.cache_info().currsize == 0


def test_fit_arrays_are_read_only():
    for array in noise._expansion_fit():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("mode", list(FidelityMode))
def test_warm_sweep_equals_cold_sweep(fresh_fit, mode):
    grid = np.linspace(-math.pi, math.pi, 226)
    cold = fidelity_sweep(grid, mode=mode)
    assert fidelity_sweep(grid, mode=mode).tobytes() == cold.tobytes()


def test_sweep_checks_each_angle_norm_and_branch_from_the_coefficients(monkeypatch, fresh_fit):
    spectral = noise._fourier_coefficients

    def scaled_by(factor):
        def coefficients(*args):
            m, a, ideal = spectral(*args)
            return m, a * factor, ideal

        return coefficients

    for factor, shown in [(1 + 1e-9, "1.000000001"), (math.nan, "nan")]:
        noise._expansion_fit.cache_clear()
        monkeypatch.setattr(noise, "_fourier_coefficients", scaled_by(factor))
        for mode in FidelityMode:
            with pytest.raises(ValueError, match=f"state is not normalized: [|]psi[|] = {shown}"):
                fidelity_sweep([0.0, 0.05], mode=mode)

    def flag_one_only(*args):
        m, a, ideal = spectral(*args)
        constant = np.zeros_like(a)
        constant[0, 1] = 1.0  # |000001>, the flag (last qubit) is 1 at every angle
        return m, constant, ideal

    noise._expansion_fit.cache_clear()
    monkeypatch.setattr(noise, "_fourier_coefficients", flag_one_only)
    assert fidelity_sweep([0.05], mode=FidelityMode.PRE_MEASUREMENT)[0] == 0.0
    with pytest.raises(ValueError, match="outcome 0 on qubit 5 has probability 0.0"):
        fidelity_sweep([0.05], mode=FidelityMode.POST_SELECTED_SUCCESS)


def test_fit_bounds_the_output_norm_at_every_angle_not_only_the_grid(monkeypatch, fresh_fit):
    # +delta on the z^1 coefficient and -delta on the z^-1 one cancel at
    # theta = 0, so a check of the grid's norms alone would pass [0.0]
    spectral = noise._fourier_coefficients
    delta = 1e-4

    def skewed(*args):
        m, a, ideal = spectral(*args)
        a = a.copy()
        a[m == 1, 0] += delta
        a[m == -1, 0] -= delta
        return m, a, ideal

    monkeypatch.setattr(noise, "_fourier_coefficients", skewed)
    for mode in FidelityMode:
        with pytest.raises(ValueError, match="state is not normalized: [|]psi[|] = "):
            fidelity_sweep([0.0], mode=mode)


def test_fit_norm_bound_names_the_end_whose_norm_lies_farther_from_one(monkeypatch, fresh_fit):
    # Squared, the upper end c + s lies farther from 1 than c - s; as norms,
    # the lower end does, by about s^2 / 4 - (c - 1).
    center, spread = 1.0 + 1e-7, 1e-3
    p = np.zeros(33, dtype=complex)
    p[0], p[1] = center, spread
    monkeypatch.setattr(noise, "_norm_polynomial", lambda m, a: p)
    lower = math.sqrt(center - spread)
    assert abs(lower - 1.0) > abs(math.sqrt(center + spread) - 1.0)
    with pytest.raises(ValueError, match=f"^state is not normalized: [|]psi[|] = {lower!r}$"):
        fidelity_sweep([0.0])


# ---------------------------------------------------------------------------
# the robustness curvature: F(theta) = 1 - kappa theta^2 + O(theta^3)


def expansion_coefficients():
    circuit = build_d4_to_d5_circuit()
    source = tensor(dicke_state(4, 2), new_basis_state(2, "00"))
    m, a, _ = noise._fourier_coefficients(circuit, source)
    return circuit, apply_circuit(source, circuit), m, a


def second_derivative(m, c):
    """d^2/dtheta^2 at theta = 0 of sum_j |sum_r c[r, j] exp(i m[r] theta / 2)|^2."""
    c = c.reshape(len(m), -1)
    value = c.sum(axis=0)
    first = 0.5j * (m[:, None] * c).sum(axis=0)
    second = -0.25 * (m[:, None] ** 2 * c).sum(axis=0)
    return float(np.sum(2.0 * (value.conj() * second).real + 2.0 * np.abs(first) ** 2))


def test_premeasurement_curvature_is_the_variance_of_the_generator():
    circuit, ideal, m, a = expansion_coefficients()
    kappa = -0.5 * second_derivative(m, a @ ideal.amplitudes.conj())
    # A = sum over controlled gates of (1/2) X_target prod_c |1><1|_c, each
    # carried to the output by the ideal gates after it.
    n, dim = circuit.n_qubits, 1 << circuit.n_qubits
    one = np.diag([0.0, 1.0]).astype(complex)
    generator = np.zeros((dim, dim), dtype=complex)
    for i, gate in enumerate(circuit.gates):
        if not gate.controls:
            continue
        parts = [
            gates.X_MATRIX / 2 if q == gate.target else one if q in gate.controls else np.eye(2)
            for q in range(n)
        ]
        after = np.eye(dim, dtype=complex)
        for later in circuit.gates[i + 1:]:
            after = sim.gate_unitary(later, n) @ after
        generator += after @ functools.reduce(np.kron, parts) @ after.conj().T
    psi = ideal.amplitudes
    moved = generator @ psi
    variance = np.vdot(moved, moved).real - np.vdot(psi, moved).real ** 2
    assert kappa == pytest.approx(3.2565867, abs=1e-7)
    assert abs(kappa - variance) <= 1e-10


def test_postselected_curvature_matches_a_finite_difference():
    circuit, ideal, m, a = expansion_coefficients()
    flag = EXPANSION_LAYOUT.index(EXPANSION_LAYOUT.flag)
    _, selected = postselect(ideal, flag, 0)
    branch = np.take(a.reshape((len(m),) + (2,) * circuit.n_qubits), 0, axis=1 + flag)
    probability = float(np.sum(np.abs(branch.reshape(len(m), -1).sum(axis=0)) ** 2))
    assert probability == pytest.approx(5 / 6, abs=1e-12)
    # F = N / P with N = P = p and F' = 0 at theta = 0, so F'' = (N'' - P'') / p
    kappa = (second_derivative(m, branch) - second_derivative(m, a @ selected.amplitudes.conj()))
    kappa /= 2 * probability
    h = 1e-4
    plus, minus = per_angle_sweep([h, -h], FidelityMode.POST_SELECTED_SUCCESS)
    assert kappa == pytest.approx(1.95141, abs=1e-5)
    assert abs(kappa - (2 - plus - minus) / (2 * h * h)) <= 1e-6
