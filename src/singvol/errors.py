"""Exception hierarchy shared by all engines and the command line front end."""


class SingvolError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(SingvolError):
    """Malformed input: bad JSON, wrong shapes, non-primitive rays."""

    exit_code = 2


class DomainError(SingvolError):
    """Structurally valid input outside an operation's domain.

    Examples: a vector outside the cone, a dual graph whose intersection
    matrix is not negative definite, an ideal that is not m-primary.
    """

    exit_code = 3


class UnsupportedDimensionError(SingvolError):
    """The requested computation is only implemented in low dimensions."""

    exit_code = 4


class InternalError(SingvolError):
    """An exact self-check of a computed answer or certificate failed.

    This signals a bug, never bad input.  The checks raise it explicitly,
    so they keep running under ``python -O``.
    """


def check(ok, message: str) -> None:
    """A self-check that, unlike assert, still runs under python -O."""
    if not ok:
        raise InternalError(message)
