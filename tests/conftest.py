"""Shared helpers for randomized tests (all seeded, no global RNG state),
and a fixture that counts kernel work."""
import numpy as np
import pytest

from dickesim import noise, sim
from dickesim.gates import CircuitProgram, GateSpec, make_gate
from dickesim.sim import StateVector


@pytest.fixture
def evolved_states(monkeypatch):
    """A list that gets the number of states of every kernel call."""
    evolved = []
    kernel = sim._evolve

    def counting(psi, n_qubits, *args):
        evolved.append(psi.size >> n_qubits)
        kernel(psi, n_qubits, *args)

    monkeypatch.setattr(sim, "_evolve", counting)
    monkeypatch.setattr(noise, "_evolve", counting)
    return evolved


def random_unitary_2x2(rng):
    """Haar-distributed 2x2 unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_gate(rng, n_qubits, max_controls=3):
    n_controls = int(rng.integers(0, min(max_controls, n_qubits - 1) + 1))
    qubits = rng.choice(n_qubits, size=n_controls + 1, replace=False)
    return GateSpec(
        tuple(int(q) for q in qubits[:-1]), int(qubits[-1]), random_unitary_2x2(rng)
    )


def random_named_circuit(rng, n_qubits, n_gates):
    """Circuit drawn from the named gate zoo (H, X, RX, RY and controlled forms)."""
    gates = []
    for _ in range(n_gates):
        name = str(rng.choice(["H", "X", "RX", "RY"]))
        theta = float(rng.uniform(-np.pi, np.pi)) if name in ("RX", "RY") else None
        n_controls = int(rng.integers(0, min(3, n_qubits - 1) + 1))
        qubits = rng.choice(n_qubits, size=n_controls + 1, replace=False)
        gates.append(
            make_gate(
                name,
                tuple(int(q) for q in qubits[:-1]),
                int(qubits[-1]),
                theta=theta,
            )
        )
    labels = tuple(f"q{i}" for i in range(n_qubits))
    return CircuitProgram(n_qubits, tuple(gates), labels)
