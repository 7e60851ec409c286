"""Exact KVol computations on regular n-gon translation surfaces.

The package builds the regular n-gon surface X_n (n even) and its staircase
model S_n with exact coordinates in Q(2*cos(pi/n)), enumerates saddle
connections, computes algebraic intersection numbers, and evaluates the
intersection-to-length ratio functional KVol both by brute force and through
its closed hyperbolic-distance formula on the Teichmueller disk.

The package itself defines no names: import each one from the module that
defines it, e.g. ``from kvol.ratios import kvol_bruteforce``.
"""
