"""Sparse deep ReLU network regression on hierarchical sparse-grid bases."""

__version__ = "0.1.0"


class DataError(ValueError):
    """Input that sdrn refuses; the command line prints the message and exits 2."""
