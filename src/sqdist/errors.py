"""Exception hierarchy shared by all sqdist modules."""


class SqDistError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(SqDistError):
    pass


class PartCountBelowTwo(SqDistError):
    pass


class NonPositivePart(SqDistError):
    pass


class MismatchedTotals(SqDistError):
    pass


class MismatchedLength(SqDistError):
    pass


class NotMajorized(SqDistError):
    pass


class Identical(SqDistError):
    pass


class InfeasibleParameters(SqDistError):
    pass


class DisconnectedGraph(SqDistError):
    pass


class NotApplicable(SqDistError):
    pass


class BracketFailure(SqDistError):
    pass


class NoConvergence(SqDistError):
    pass
