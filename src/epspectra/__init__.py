"""epspectra: spectra and exceptional-point unfolding of the PT-symmetric
two-mode Bose-Hubbard model.

The package builds the non-Hermitian Hamiltonian H = -2i gamma L_z + 2 v L_x
+ 2 c L_z^2 for N particles, computes complex spectra and eigenvalue
trajectories, derives exact characteristic polynomials in the interaction
parameter, performs Newton-polygon unfolding analysis of the order-(N+1)
degeneracy, and locates second-order exceptional points across parameter
space.

Code imports the submodules (``epspectra.spectra``, ``epspectra.cli``, ...):
the package root loads none of them, so each command loads only what it
runs.
"""

__version__ = "0.1.0"
