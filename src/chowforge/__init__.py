"""chowforge: exact symbolic intersection-theory computations for moduli of
pointed hyperelliptic curves.

All arithmetic is exact, over the rational function field in a single genus
parameter g (or its specialization at an integer), with no floating point
anywhere.  Modules:

- rationals: univariate polynomials and rational functions over Q.
- ring: graded polynomial rings, weighted grevlex normal forms, presentations.
- chern: projective-bundle contexts, jet-bundle Chern classes, pushforwards.
- scenarios: the named presentation computations and the one Report type.
- testcurves: blow-up ledgers, intersection matrices, full-rank certificates,
  and the one exact rank over Q.
- points: F_p curve sampling and point-condition ranks by interpolation bases;
  evaluation matrices and elimination serve only the benchmark and c13.
- cli: the `chowforge` command-line entry point and its scenario table.
"""

__version__ = "0.1.0"
