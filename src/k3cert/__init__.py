"""Picard rank bounds and certificates for degree-2 K3 surfaces w^2 = f6(x,y,z).

Point counts over F_{p^d} at a single odd prime p determine the Frobenius
characteristic polynomial on second cohomology; its cyclotomic part bounds
the geometric Picard rank from above.  Tritangent lines of the branch
sextic carry an explicit second-order lifting obstruction that can pin the
rank exactly, and lattice utilities handle the intersection-form side.

The package itself imports nothing: callers import the submodules
(k3cert.cli, k3cert.count, k3cert.geom, ...), and k3cert.errors needs no
numpy.
"""

__version__ = "0.1.0"
