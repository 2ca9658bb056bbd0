"""Shared exception types."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder.

    Only ``exactalg.cyclotomic_polynomial`` divides polynomials (by
    binomials x^m - 1); there this firing indicates a bug, never bad input.
    """


class InternalError(RuntimeError):
    """An integrity check of the program failed: a bug, never bad input.

    These checks are explicit raises, not asserts, so ``python -O`` keeps
    them.
    """
