"""Numerical verification laboratory for Q-valued maps.

Value space and matching metric (qcore), an example library of stationary
fields (fields), Dirichlet variations and quadrature (variational), weighted
radial inequalities (carleman) with the closed-form second route of their
two-sided checks (radial), frequency and vanishing order (frequency),
and the 2D unwinding / epiperimetric machinery (weiss2d), wired together by
a reproducible command-line front end (cli).
"""

__version__ = "0.1.0"
