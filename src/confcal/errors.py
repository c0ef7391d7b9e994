"""Exception hierarchy shared across the toolkit: one class per cause that
code catches by name, or that a record flag or an exit code tells apart."""


class ConfcalError(Exception):
    """Base class for all toolkit errors."""


# --- confidence arithmetic ---

class InvalidLogProb(ConfcalError):
    pass


class AnchorTokensAbsent(ConfcalError):
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
    """A bad argument to a library function."""


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
