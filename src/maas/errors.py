"""The three maas errors, one per way the CLI handles an error: a `DataError`
exits 3, a `BackendError` exits 4 and any other `MaasError` exits 1."""


class MaasError(Exception):
    """The base of the other two, raised itself for a broken contract inside
    the library, such as a dimension, a shape or a stale architecture; exit 1."""


class DataError(MaasError):
    """Bad input from outside the program: a dataset, a profile file, a
    checkpoint or a mutator's patch; exit 3."""


class BackendError(MaasError):
    """A chat-completions endpoint that is missing, fails or answers with a
    malformed payload; exit 4."""
