"""Numerical laboratory for the Moore-Gibson-Thompson equation in one space
dimension: forward solver, Carleman-weighted least-squares functional and the
iterative reconstruction of the damping coefficient from boundary traces."""

from .grid import SpaceTimeGrid, build_grid

__all__ = ["SpaceTimeGrid", "build_grid"]
