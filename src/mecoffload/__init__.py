"""Exact and learned-pruning solvers for multiuser MEC task offloading."""

__version__ = "0.1.0"
