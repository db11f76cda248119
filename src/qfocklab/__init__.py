"""Numerical laboratory for truncated q-deformed Fock spaces."""

__version__ = "0.1.0"
