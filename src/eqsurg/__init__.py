"""Equivariant Dehn-surgery calculus for genus-1 real 3-manifolds."""

__version__ = "0.1.0"
