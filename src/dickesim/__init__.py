"""Statevector simulation of Dicke-state expansion under restricted qubit access."""

__version__ = "0.1.0"
