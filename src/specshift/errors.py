"""Exception types shared across the package."""


class SpecshiftError(Exception):
    """Base class for all library errors."""


class ConfigError(SpecshiftError):
    """Invalid experiment configuration or command-line usage; the CLI exits
    2 on it and on its subclasses.  Each config value is checked once, by the
    function that uses it, through ``catalog.finite_reals`` (reals) or
    ``catalog.integer_at_least`` (integers); the CLI only routes fields."""


class NonFinite(SpecshiftError):
    """Input contains NaN or infinite entries."""


class DomainError(SpecshiftError):
    """A scalar function was evaluated outside its domain, or input data is
    structurally unusable (e.g. a matrix file that is not Hermitian)."""


class ConvergenceFailure(SpecshiftError):
    """A dense eigenroutine failed to meet its accuracy contract."""


class DegeneratePair(SpecshiftError):
    """Operator pair too close together to define an increment ratio."""


class BadInterval(ConfigError):
    """Interval endpoints are not finite, not ordered, or the grid is too small."""


class BadParams(ConfigError):
    """Catalog function parameters are malformed."""


class UnknownFunction(ConfigError):
    """Catalog function id is not recognised."""


class BadSchedule(ConfigError, ValueError):
    """K < 1, or windows delta0 * 2**-n, n = 1..K, not positive and strictly shrinking."""


class BadArgument(ConfigError, ValueError):
    """A search or sequence argument (dim, budget, seed, K, search_grid) is
    not an integer at or above its minimum."""


class RefinementOverflow(SpecshiftError):
    """Segment refinement hit the subdivision cap: a piece of the finest cut
    still moves f by 1 or more, as f jumps or is steep (exp at large entries)."""


class PreconditionViolated(SpecshiftError):
    """Operation precondition not met."""


class InvariantViolation(SpecshiftError):
    """A stated invariant failed to hold on constructed data."""
