"""The dual X_st routes: each X_st factor of the quotient formula on its own.

``schur._mathas_factors`` multiplies every X_st quotient into one factor
multiset through ``schur._xst_mathas``.  These two routes expand one X_st
alone, once as that quotient and once by its closed product form, so the
tests can compare them.
"""

from ariki.combinatorics import Multipartition, conjugate, gen_hook_length
from ariki.exactalg import MultiLaurent
from ariki.schur import _Factors, _xst_mathas


def xst_mathas(m: Multipartition, s: int, t: int) -> MultiLaurent:
    """The X_st quotient, its den binomials cancelled against its num binomials."""
    f = _Factors(m.level)
    _xst_mathas(f, m, s, t)
    return f.expand()


def xst_closed(m: Multipartition, s: int, t: int) -> MultiLaurent:
    """X_st for 0 <= s < t < l, by the closed product form (no division)."""
    lam, mu = m.components[s], m.components[t]
    lam_conj, mu_conj = conjugate(lam), conjugate(mu)
    f = _Factors(m.level)
    f.monomial(1, -sum(a * b for a, b in zip(lam_conj.parts, mu_conj.parts)))
    f.e_Q[s], f.e_Q[t] = mu.size, lam.size
    for (i, j) in lam.nodes():
        f.cross(gen_hook_length(lam, mu, i, j), s, t)
    for (i, j) in mu.nodes():
        f.cross(gen_hook_length(mu, lam, i, j), t, s)
    return f.expand()
