"""Numerics for calibrations and Finsler volumes on the injective hull
of the round circle."""

__version__ = "0.1.0"
