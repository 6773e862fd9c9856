"""Exact-arithmetic toolkit for the combinatorics of log-pair volume bounds.

Subpackages by topic:

* :mod:`bdivkit.exact` -- rationals, lattice vectors, exact linear algebra
* :mod:`bdivkit.fans` -- simplicial fans over the positive orthant
* :mod:`bdivkit.logpairs` -- local SNC pairs, valuations, b-divisors
* :mod:`bdivkit.reduction` -- the weight-descent reduction and its verifier
* :mod:`bdivkit.dcc` -- coefficient sets and descending-chain verdicts
* :mod:`bdivkit.bounds` -- explicit volume and symmetry bound formulas,
  integer polynomials
* :mod:`bdivkit.cli` -- command-line front end

The package root re-exports nothing: import names from these modules.
"""

__version__ = "0.1.0"
