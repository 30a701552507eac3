"""Exception hierarchy shared by all padelic modules."""


class PadelicError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhausted(PadelicError):
    """An operation would need more p-adic digits than are available."""


class EmptySet(PadelicError):
    """A set description denotes the empty set."""


class LengthExceedsSet(PadelicError):
    """A p-ordering longer than a finite set permits was requested."""


class SetTooSmall(PadelicError):
    """A finite component has too few elements for the requested degree."""


class NotFinitelyGenerated(PadelicError):
    """The characteristic module at this degree is not a fractional ideal."""


class FactorLimitExceeded(PadelicError):
    """A denominator has a cofactor too large to factor by trial division."""


class NoAdelicOrdering(PadelicError):
    """The set admits no adelic ordering of the requested length."""


class CertificateFailed(PadelicError):
    """A result could not be certified within the configured bounds."""
