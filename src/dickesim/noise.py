"""Coherent over-rotation error model and fidelity sweeps.

Every controlled gate in a circuit picks up an extra X-axis rotation by a
fixed angle theta on its target qubit, composed after the intended target
operation; the control structure stays exact and uncontrolled single-qubit
gates stay ideal. Fidelity between the ideal and noisy runs of the expansion
circuit quantifies robustness, either on the full pre-measurement state or on
the renormalized success branches.
"""
from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple

import numpy as np

from .dicke import dicke_state
from .gates import CircuitProgram, GateSpec, rx_matrix
from .protocols import EXPANSION_LAYOUT, build_d4_to_d5_circuit
from .sim import apply_circuit, fidelity_pure, new_basis_state, postselect, tensor


class FidelityMode(enum.Enum):
    """What to compare between the ideal and noisy runs."""

    PRE_MEASUREMENT = "pre-measurement"
    POST_SELECTED_SUCCESS = "post-selected"


class SweepRow(NamedTuple):
    theta: float
    fidelity: float


def _check_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError("over-rotation angle must be finite")
    if abs(theta) > math.pi:
        raise ValueError(f"over-rotation angle {theta!r} outside [-pi, pi]")


def noisify_gate(gate: GateSpec, theta: float) -> GateSpec:
    """Compose an extra Rx(theta) after the target operation of a controlled gate.

    Gates without controls are returned unchanged; control structure, order
    and labels are preserved exactly.
    """
    _check_angle(theta)
    if not gate.controls:
        return gate
    return GateSpec(
        gate.controls,
        gate.target,
        rx_matrix(theta) @ gate.matrix,
        label=gate.label,
    )


def noisify_circuit(circuit: CircuitProgram, theta: float) -> CircuitProgram:
    """Apply :func:`noisify_gate` to every gate, keeping order and labels."""
    return CircuitProgram(
        circuit.n_qubits,
        tuple(noisify_gate(g, theta) for g in circuit.gates),
        circuit.qubit_labels,
    )


def default_theta_grid() -> np.ndarray:
    """101 uniform angles covering 0 to 0.1 radians."""
    return np.linspace(0.0, 0.1, 101)


def fidelity_sweep(
    theta_grid: Iterable[float],
    mode: FidelityMode = FidelityMode.POST_SELECTED_SUCCESS,
) -> list[SweepRow]:
    """Fidelity of the noisy expansion against the ideal one, per grid angle.

    The input is always the 4-qubit Dicke state with |00> ancillas appended.
    PRE_MEASUREMENT compares the full 6-qubit outputs; POST_SELECTED_SUCCESS
    compares the renormalized flag-0 branches. Both give fidelity 1 at
    theta = 0. Rows follow the input grid order.
    """
    grid = [float(t) for t in theta_grid]
    if not grid:
        raise ValueError("theta grid is empty")
    for theta in grid:
        _check_angle(theta)
    circuit = build_d4_to_d5_circuit()
    source = tensor(dicke_state(4, 2), new_basis_state(2, "00"))
    flag = EXPANSION_LAYOUT.index(EXPANSION_LAYOUT.flag)
    ideal = apply_circuit(source, circuit)
    post_selected = mode is FidelityMode.POST_SELECTED_SUCCESS
    if post_selected:
        _, ideal = postselect(ideal, flag, 0)
    rows = []
    for theta in grid:
        noisy = apply_circuit(source, noisify_circuit(circuit, theta))
        if post_selected:
            _, noisy = postselect(noisy, flag, 0)
        rows.append(SweepRow(theta=theta, fidelity=fidelity_pure(ideal, noisy)))
    return rows
