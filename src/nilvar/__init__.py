"""Irreducible components of {(A, B) : AB = BA = A^a = B^b = 0}.

The variety of pairs of commuting nilpotent matrices annihilating each
other is module-theoretic in disguise: its points are the modules over
K[x,y]/(xy, x^a, y^b) of a fixed dimension, and its irreducible
components are controlled by string and band combinatorics over that
algebra.  This package computes those components exactly — over the
rationals, with no floating point anywhere — and verifies the dimension
formulas against brute-force linear algebra.

Layout:
    partitions  partition combinatorics (duals, dominance, enumeration) and
                the reduced pair (a-1, b-1) with its diamond pairing: the one
                check that a pair indexes a regular or semi-projective
                stratum, which every stratum formula calls
    words       strings and bands in the letters x, y
    exactla     exact matrices built once from sparse rows (int entries,
                Fraction only when needed) and never written after, one
                sparse fraction-free elimination for rank and pivot
                columns; serves modmatrix and the dense Hom oracle;
                `nilvar classify` does not load it
    modmatrix   matrix-pair modules: string/band constructions, stats
    homalg      Hom/End dimensions, Ext^1 vanishing, graph maps, orbit
                dimensions
    indexmod    index modules as tuples of summand words, stratum dimensions
    classify    the component classification itself
    verify      randomized/batch verification suites
    cli         command-line interface
"""

__version__ = "0.1.0"
