"""Exception types shared across modules."""


class VerificationError(AssertionError):
    """A mechanically checked statement failed; the message carries the witness."""


class NotSemisimpleError(ValueError):
    """Subgroup order divisible by the field characteristic; classification refused."""


class DegeneratePointError(ValueError):
    """A point lies in the degeneracy locus of a rational map."""


class ModPolyFormatError(ValueError):
    """A modular polynomial or certificate file violates its wire format."""


class DenominatorError(ValueError):
    """A prime divides a coefficient denominator, so there is no reduction mod p."""
