"""Exception hierarchy shared by every module.

The CLI maps these onto exit codes: ``InputError`` and its subclasses exit
with 1, ``UnsupportedField`` with 2, ``NotApplicable`` (and degenerate
verdicts) with 3.
"""


class AbckitError(Exception):
    """Base class for all toolkit errors."""


class InputError(AbckitError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedField(AbckitError):
    """Field outside Q and the nine class-number-one imaginary quadratic fields."""


class NotApplicable(AbckitError):
    """A conditional bound whose hypothesis is vacuous for the supported fields."""


class ZeroInput(InputError):
    pass


class AllZero(InputError):
    pass


class ZeroCoordinate(InputError):
    pass


class SumNotZero(InputError):
    pass


class NotCoprime(InputError):
    pass


class AllUnits(InputError):
    pass


class BadRadical(InputError):
    pass


class BadParameter(InputError):
    pass


class BadAlpha(InputError):
    pass


class BadPhi(InputError):
    pass


class EmptyDataset(InputError):
    pass


class FactoringLimit(InputError):
    """A composite has no prime factor small enough for the elliptic curve method's last level."""


class RepeatedRoots(InputError):
    pass


class SingularSystem(InputError):
    pass


class RootsNotCoprime(InputError):
    pass


class DegenerateHeight(InputError):
    pass


class HypothesisFails(InputError):
    """A conditional bound was requested for a triple that violates its hypothesis."""

    def __init__(self, corollary_id: int, detail: str):
        super().__init__(f"corollary {corollary_id}: {detail}")
        self.corollary_id = corollary_id
        self.detail = detail


class ParseError(InputError):
    """Malformed config line or literal; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownKey(InputError):
    def __init__(self, name: str):
        super().__init__(f"unknown config key: {name}")
        self.name = name


class BadValue(InputError):
    def __init__(self, key: str, detail: str):
        super().__init__(f"bad value for {key}: {detail}")
        self.key = key
