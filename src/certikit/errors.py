"""Shared exception types."""


class CertikitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(CertikitError):
    pass


class NegativeRadius(CertikitError):
    pass


class NonFiniteState(CertikitError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NoConvergence(CertikitError):
    pass


class InfeasibleFilter(CertikitError):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class SqpNoConverge(CertikitError):
    pass


class UnsupportedModel(CertikitError):
    pass


class UnsupportedActivation(CertikitError):
    pass


class UnboundedRegion(CertikitError):
    pass


class NotFixedPoint(CertikitError):
    pass


class InsufficientCalibration(CertikitError):
    pass


class InsufficientData(CertikitError):
    pass


class CholeskyFail(CertikitError):
    pass


class SampleSizeOverflow(CertikitError):
    """Requested accuracy leads to an astronomically large sample count."""


class ConfigError(CertikitError):
    pass


class UnknownDemo(CertikitError):
    pass
