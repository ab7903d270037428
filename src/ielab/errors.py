"""Exception types shared across the package."""


class IELabError(Exception):
    """Base class for all package errors."""


class CapExceeded(IELabError):
    """An enumeration (policies, trajectories, ledgers, game tree) exceeded its cap.

    Signals the instance is beyond desk scale; never silently approximated.
    """


class IncompleteEnumeration(IELabError):
    """An exact enumeration's masses do not sum to exactly 1 under some model.

    Means the enumeration or the lattice it reads dropped or invented mass;
    the oracle refuses to build a table on it.
    """


class ZeroEvidence(IELabError):
    """A conditioning event has zero mass under the prior/posterior.

    Distinct from numeric failure: it means the ledger or event is
    inconsistent with the model class (usually a harness bug).
    """


class DegenerateSplit(IELabError):
    """A policy-set gap was requested for an empty set or the full policy space."""


class AssumptionViolated(IELabError):
    """A parameter calculator's standing assumption failed (names the assumption)."""


class PreconditionViolated(IELabError):
    """An operation's stated precondition does not hold for the given inputs."""


class OracleUnavailable(IELabError):
    """The fully rational agent needs exact game enumeration beyond the oracle's caps."""


class ConfigError(IELabError):
    """Experiment configuration is malformed (unknown keys, bad values, missing files)."""


class VerificationFailure(IELabError):
    """A verifier suite found a violated assertion (harness exit code 3)."""
