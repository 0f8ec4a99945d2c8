"""Exception hierarchy shared by all modules."""


class TrapnetsError(Exception):
    """Base class for every error raised by this package."""


class UnknownVertex(TrapnetsError):
    pass


class SelfLoop(TrapnetsError):
    pass


class NonpositiveConductance(TrapnetsError):
    pass


class DisconnectedGraph(TrapnetsError):
    pass


class EmptySet(TrapnetsError):
    pass


class OverlappingClasses(TrapnetsError):
    pass


class EmptyClass(TrapnetsError):
    pass


class PairNotDistinct(TrapnetsError):
    pass


class CarrierMismatch(TrapnetsError):
    pass


class NotACorrespondence(TrapnetsError):
    pass


class InvalidScale(TrapnetsError):
    pass


class InvalidTruncation(TrapnetsError):
    pass


class SupportMismatch(TrapnetsError):
    pass


class NumericalFailure(TrapnetsError):
    pass


class NonpositiveTime(TrapnetsError):
    pass


class InvalidBounds(TrapnetsError):
    pass


class LevelTooLarge(TrapnetsError):
    pass


class TooLargeForEnumeration(TrapnetsError):
    pass


class InvalidWindow(TrapnetsError):
    pass


class PreconditionViolated(TrapnetsError):
    pass


class ConfigError(TrapnetsError):
    pass
