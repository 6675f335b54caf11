"""flexnum: arithmetic and convergence calculus for external numbers.

An external number is a real representative plus a neutrix (a convex additive
group of reals) modelling an order of magnitude of imprecision.  The package
provides, on an asymptotic scale generated by one infinitesimal ``e``:

- ``scale``       neutrices and their algebra
- ``extnum``      external numbers: arithmetic, absolute value, order
- ``seq``         flexible sequences: limits, Cauchy tests, segment limits
- ``recur``       flexible recurrence relations and stability verdicts
- ``apps``        shadow expansions and slow-curve matching
- ``concretize``  the numeric interval model used as a cross-checking oracle
- ``dsl``/``cli`` text syntax and the command-line front end

Importing the package loads none of these; import the module you use
(``from flexnum import seq``).
"""

__version__ = "0.1.0"
