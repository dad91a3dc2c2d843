"""Sparse deep ReLU network regression on hierarchical sparse-grid bases."""

__version__ = "0.1.0"
