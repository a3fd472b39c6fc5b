"""Exact twisted Hochschild homology of finite dg categories over Q,
with a numerical checker for the symmetric-power decomposition."""

__version__ = "0.1.0"
