"""Basic-set sizes without a crystal: the principally specialised Weyl-Kac character.

By Ariki's theorem, the crystal component of the empty multipartition with
charge s (level lc, quantum characteristic e' >= 2) has as many vertices of
rank k as the depth-k weight spaces of the irreducible highest-weight
module L(Lambda) of affine sl_e' have dimensions in total, where
Lambda = sum over j of Lambda_(s_j mod e').  The principally specialised
character (Kac, *Infinite dimensional Lie algebras*, ch. 10) gives those
numbers as the power series

    prod over positive roots beta of ((1 - x^<Lambda+rho, beta>) / (1 - x^ht(beta)))^mult(beta),

where, with beta = sum_i c_i alpha_i and m_i the number of charges
congruent to i mod e':

* the real positive roots are k*delta plus a proper cyclic interval of
  simple roots, k >= 0, each of multiplicity 1;
* the imaginary roots k*delta, k >= 1, have multiplicity e' - 1;
* <Lambda+rho, beta> = sum_i c_i (m_i + 1), which is k (lc + e') at k*delta,
  and ht(beta) = sum_i c_i.

The series reads the residues alone, so it holds for every lift of the
charges and every order of the components.
"""

import math

from ariki.combinatorics import compositions
from ariki.schur import zeta_exponents


def layer_counts(ep: int, s, n: int) -> list[int]:
    """The vertex counts of ranks 0..n of the crystal component with charge s, e' = ep >= 2."""
    lc, m = len(s), [0] * ep
    for sj in s:
        m[sj % ep] += 1
    series = [1] + [0] * n

    def times(pairing: int, height: int, mult: int = 1) -> None:
        # series *= ((1 - x^pairing) / (1 - x^height))^mult, truncated at x^n.
        for _ in range(mult):
            for i in range(n, pairing - 1, -1):
                series[i] -= series[i - pairing]
            for i in range(height, n + 1):
                series[i] += series[i - height]

    for k in range(n // ep + 1):
        for start in range(ep):
            for length in range(1, min(ep, n - k * ep + 1)):
                cyclic = sum(m[(start + j) % ep] + 1 for j in range(length))
                times(cyclic + k * (lc + ep), k * ep + length)
        if k:
            times(k * (lc + ep), k * ep, ep - 1)
    return series


def basic_set_size(spec, l: int, n: int) -> int:
    """The number of simple modules at rank n, from the character of each class of parameters.

    With q -> zeta_N^a and Q_j -> zeta_N^(A_j) (``schur.zeta_exponents``),
    Q_i and Q_j lie in one class when they differ by a power of q's image,
    A_i = A_j mod gcd(a, N), and the residue of j in its class solves
    s_j a = A_j - A_anchor mod N.  These classes may be coarser than
    ``basicset.dm_partition``'s, which join only powers -n < d < n; the
    number of simple modules is a property of the algebra, so either
    split gives it.  Needs e' = N / gcd(a, N) >= 2.
    """
    N, a, A = zeta_exponents(spec, l)
    g = math.gcd(a, N)
    ep = N // g
    if ep < 2:
        raise ValueError("e' = 1: no affine sl_e' character")
    unit = pow(a // g, -1, ep)
    classes: dict[int, list[int]] = {}
    for Aj in A:
        classes.setdefault(Aj % g, []).append(Aj)
    counts = [layer_counts(ep, [(Aj - cls[0]) // g * unit for Aj in cls], n) for cls in classes.values()]
    return sum(math.prod(c[k] for c, k in zip(counts, sizes)) for sizes in compositions(n, len(counts)))
