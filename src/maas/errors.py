"""Exception hierarchy for the maas package."""


class MaasError(Exception):
    """Base class for all maas errors."""


class DataError(MaasError):
    """Bad input data (datasets, profiles, patches)."""


class BackendError(MaasError):
    """Remote backend failures (chat-completions endpoints)."""


# registry
class DuplicateId(DataError):
    pass


class InvalidTemperature(DataError):
    pass


class SecondEarlyExit(DataError):
    pass


class SecondDirectIO(DataError):
    pass


class UnknownTarget(DataError):
    pass


class PatchOnExitOperator(DataError):
    pass


class ProtectedOperator(DataError):
    """Structural patch would destroy the early-exit / direct-io invariant."""


class MergeUnknownPartner(DataError):
    pass


class InvalidPatch(DataError):
    pass


# embedding / controller
class DimensionMismatch(MaasError):
    pass


# sampler
class StaleArchitecture(MaasError):
    """Architecture was sampled under a different parameter version."""


# executor
class BackendUnavailable(BackendError):
    pass


class MalformedResponse(BackendError):
    pass


class EmptyArchitecture(MaasError):
    pass


# optimizer
class NonpositiveCost(MaasError):
    pass


class ShapeMismatch(MaasError):
    pass


class MutatorUnavailable(BackendError):
    pass


class UnparseableMutation(MaasError):
    pass


# harness
class ParseError(DataError):
    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateQueryId(DataError):
    pass


class TooFewRecords(DataError):
    pass
