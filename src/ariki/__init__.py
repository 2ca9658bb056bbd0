"""Exact computations for Ariki-Koike algebras.

Schur elements by three independent formulas, semisimplicity and defect-0
classification, a-values by three routes, and canonical basic sets for the
complex reflection groups G(l,1,n) and G(l,p,n).
"""

from .combinatorics import (
    ChargeData,
    Dominance,
    KappaSequence,
    Multipartition,
    Partition,
    ShiftedSymbol,
    a_value_combinatorial,
    a_value_hook_formula,
    conjugate,
    dominates,
    enumerate_multipartitions,
    gen_hook_length,
    kappa,
    l_symbol,
    mp,
    multiset_dominates,
    n_function,
    orbit_and_stabilizer,
    rebar,
    scaled_kappa,
    shifted_symbol,
    sigma_action,
)
from .errors import DomainError, InexactDivisionError, InternalError
from .exactalg import (
    CycloLaurent,
    CyclotomicInt,
    MultiLaurent,
    SpecMap,
    cyclotomic_polynomial,
    specialise,
)
from .schur import (
    CycloSpec,
    a_value_via_valuation,
    alpha_identity,
    ariki_poly,
    conj_content_identity,
    is_defect_zero,
    is_semisimple,
    schur_cancellation_free,
    schur_gim,
    schur_mathas,
    theta_p,
    xst_closed,
)
from .basicset import (
    BasicSet,
    DMPartition,
    OrbitDatum,
    UglovCharge,
    assemble_basic_set,
    assemble_basic_set_gpn,
    charge_for,
    dm_partition,
    uglov_multipartitions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
