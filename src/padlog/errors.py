"""Exception types shared across the package.

Every error that a caller is expected to catch derives from PadlogError.
Errors that indicate a bug in our own invariants (things that must never
happen if the mathematics is right) derive from InternalInvariantError
instead, so tests can tell the two apart.
"""


class PadlogError(Exception):
    """Base class for all expected, catchable errors."""

    #: short machine-readable tag, overridden per subclass
    code = "error"

    def __init__(self, message="", **info):
        super().__init__(message or self.__doc__)
        self.info = info


class NotPrime(PadlogError):
    """The base must be a prime number for this operation."""

    code = "not-prime"


class BaseMismatch(PadlogError):
    """Operands live over different bases."""

    code = "base-mismatch"


class NotAUnit(PadlogError):
    """The constant digit is zero, so the value is not invertible."""

    code = "not-a-unit"


class NotCoprime(PadlogError):
    """Arguments must be coprime."""

    code = "not-coprime"


class ZeroInput(PadlogError):
    """Zero has no finite valuation."""

    code = "zero-input"


class InsufficientPrecision(PadlogError):
    """The requested level exceeds the number of known digits."""

    code = "insufficient-precision"


class ModulusTooLarge(PadlogError):
    """The modulus exceeds the brute-force cap (override with PADLOG_MAX_MODULUS)."""

    code = "modulus-too-large"


class WrongResidueClass(PadlogError):
    """The prime lies in the wrong residue class for this construction."""

    code = "wrong-residue-class"


class NotAPrimitiveRoot(PadlogError):
    """The given residue does not generate the group."""

    code = "not-a-primitive-root"


class NotInRange(PadlogError):
    """Argument outside its allowed range."""

    code = "not-in-range"


class NotPrincipalUnit(PadlogError):
    """The unit is not congruent to 1 at the required level."""

    code = "not-principal-unit"


class DomainError(PadlogError):
    """Input lies outside the mathematical domain of this map."""

    code = "domain-error"


class AIsOne(PadlogError):
    """The base of the exponential equation must differ from 1."""

    code = "a-is-one"


class UnsolvableError(PadlogError):
    """No exponent satisfies the congruence family (with a witness level)."""

    code = "unsolvable"

    def __init__(self, message="", failing_level=None, **info):
        super().__init__(message, **info)
        self.failing_level = failing_level


class UnknownTable(PadlogError):
    """No built-in table has that name."""

    code = "unknown-table"


class NonzeroConstantTerm(PadlogError):
    """The series must have constant term 0 here."""

    code = "nonzero-constant-term"


class WrongConstantTerm(PadlogError):
    """The series must have constant term 1 here."""

    code = "wrong-constant-term"


class InternalInvariantError(AssertionError):
    """A mathematical invariant that must always hold was violated: a bug."""
