"""Shared exception types: bad input, and a failed integrity check."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class InternalError(RuntimeError):
    """An integrity check of the program failed: a bug, never bad input.

    These checks are explicit raises, not asserts, so ``python -O`` keeps
    them.
    """
