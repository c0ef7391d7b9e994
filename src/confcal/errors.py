"""Exception hierarchy shared across the toolkit."""


class ConfcalError(Exception):
    """Base class for all toolkit errors."""


# --- confidence arithmetic ---

class EmptySequence(ConfcalError):
    pass


class InvalidLogProb(ConfcalError):
    pass


class UnknownCandidate(ConfcalError):
    pass


class DuplicateCandidate(ConfcalError):
    pass


class AnchorTokensAbsent(ConfcalError):
    pass


# --- calibration metrics ---

class DegenerateClasses(ConfcalError):
    pass


class EmptyInput(ConfcalError):
    pass


class AllEmptyBins(ConfcalError):
    pass


class ZeroRetrieval(ConfcalError):
    pass


# --- model client ---

class EndpointUnreachable(ConfcalError):
    pass


class MalformedResponse(ConfcalError):
    pass


class RateLimited(ConfcalError):
    pass


class NoLabelTokenPresent(ConfcalError):
    pass


class InvalidInput(ConfcalError):
    pass


# --- datasets / harness ---

class SchemaViolation(ConfcalError):
    pass


class NoNumberFound(ConfcalError):
    pass


# --- adaptive retrieval ---

class RetrievalMiss(ConfcalError):
    pass


# --- cli ---

class ConfigInvalid(ConfcalError):
    pass
