"""Exception types shared across the package."""


class QdkdError(Exception):
    """Base class for package errors."""


class ConfigError(QdkdError, ValueError):
    """A simulation configuration value is out of range or inconsistent."""


class ProtocolError(QdkdError, RuntimeError):
    """Transcript desynchronization between the two parties (a bug, not an attack)."""


class DegenerateBranchError(QdkdError, RuntimeError):
    """A measurement selected a branch of ~zero probability.

    Impossible under the sampling rule (bit 0 iff r < p0); raised as an
    internal-error flag if a collapse is requested onto a branch with
    probability below 1e-12, or if a Bell measurement's uniform falls
    through to an outcome of ~zero probability. Only the float kernels
    raise it; a session, whose tables are exact, never meets it.
    """
