"""Verification-grade tooling for the K-invariant spectral decomposition of
GL(2) and GL(3) Eisenstein series: completed-zeta intertwining scalars,
type-A root combinatorics, truncated inner products, the GL(3) residue
matrix, and the contour-shift Parseval identities.

Each name lives in one submodule and is imported from there, as in
``from eisenspec.zeta import ratio_L``; importing the package itself loads
no submodule and no numpy."""

__version__ = "0.1.0"
