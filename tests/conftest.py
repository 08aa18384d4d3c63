"""What the tests share: the one Hypothesis profile, seeded random helpers,
the memory layouts of an array and a fixture that counts kernel work.

Every property test runs under the ``dickesim`` profile loaded here:
``derandomize=True`` draws the same examples on every run, locally and in
CI, and keeps no example database; ``deadline=None``. A test's ``@settings``
sets only its ``max_examples``. The random helpers take a
``numpy.random.Generator``: ``haar_unitary``, ``random_state``,
``random_gate`` and ``random_named_circuit``. ``_layouts`` gives an array in
every memory layout that the public entry points take.
"""
import numpy as np
import pytest
from hypothesis import settings

from dickesim import noise, sim
from dickesim.gates import CircuitProgram, GateSpec, make_gate
from dickesim.sim import StateVector

settings.register_profile("dickesim", derandomize=True, deadline=None)
settings.load_profile("dickesim")


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


def haar_unitary(rng, dim):
    """A Haar-random ``dim`` x ``dim`` unitary: the Q of a complex Gaussian's
    QR, each column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_gate(rng, n_qubits, max_controls=3):
    n_controls = int(rng.integers(0, min(max_controls, n_qubits - 1) + 1))
    qubits = rng.choice(n_qubits, size=n_controls + 1, replace=False)
    return GateSpec(
        tuple(int(q) for q in qubits[:-1]), int(qubits[-1]), haar_unitary(rng, 2)
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


def _nested_tuple(value):
    return tuple(map(_nested_tuple, value)) if isinstance(value, list) else value


def _layouts(base):
    """``base`` in every memory layout, each holding the same values."""
    every = (slice(None, None, 2),) * base.ndim
    reverse = (slice(None, None, -1),) * base.ndim
    wide = np.zeros(tuple(2 * s for s in base.shape), dtype=base.dtype)
    wide[every] = base
    read_only = base.copy()
    read_only.flags.writeable = False
    return {
        "c": np.ascontiguousarray(base),
        "fortran": np.asfortranarray(base),
        "transposed view": np.ascontiguousarray(base.T).T,
        "reversed": base[reverse].copy()[reverse],
        "strided": wide[every],
        "view": base.copy()[...],
        "read-only": read_only,
        "big-endian": base.astype(base.dtype.newbyteorder(">")),
        "list": base.tolist(),
        "tuple": _nested_tuple(base.tolist()),
    }
