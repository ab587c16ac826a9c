"""Exact Hirzebruch-Mumford volumes of complex-ball quotients for the special
unitary groups of diag(1,...,1,-1) and diag(1,...,1,-2) over imaginary
quadratic fields, with an enumeration oracle validating every local density.

The package re-exports nothing: import the module that defines a name, as in
``from hmvol.volume import hm_assembled``.
"""
