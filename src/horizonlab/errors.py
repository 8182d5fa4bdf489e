"""Exception hierarchy shared by all horizonlab modules."""


class HorizonLabError(Exception):
    """Base class for every error raised by this package."""


class MalformedParametersError(HorizonLabError):
    """Raw parameter input is non-finite or structurally unusable."""


class ConstraintError(HorizonLabError):
    """A regime inequality or data-construction constraint is violated.

    Carries the name of the violated constraint, and optionally the failed
    checks behind it as JSON-ready dicts, for machine-readable reports.
    """

    def __init__(self, constraint, message, failures=None):
        self.constraint = constraint
        self.failures = failures
        super().__init__(f"{constraint}: {message}")


class GridMismatchError(HorizonLabError):
    """Fields defined on different sphere grids were combined."""


class PositivityError(HorizonLabError):
    """A quantity required to be strictly positive is not."""


class SlabDomainError(HorizonLabError):
    """(u, ubar) lies outside the validity slab of the interior model."""


class FocusingError(HorizonLabError):
    """The null expansion blew up during cone integration."""

    def __init__(self, ubar, message="trchi diverged"):
        self.ubar = ubar
        super().__init__(f"{message} at ubar={ubar!r}")


class ResolutionError(HorizonLabError, ValueError):
    """A grid size the discretisation cannot support was requested."""


class NonConvergenceError(HorizonLabError):
    """Newton/continuation failed; carries the solver trace."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class DependencyError(HorizonLabError):
    """An upstream artifact is missing, or stale: its ``what``, by default
    its config hash, then has ``found[0] op found[1]``."""

    def __init__(self, path, producer, found=None, what="config hash",
                 op="!="):
        super().__init__(
            f"missing artifact {path!r}; run the {producer!r} subcommand "
            f"first" if found is None else
            f"stale artifact {path!r}: {what} {found[0]} {op} {found[1]}; "
            f"rerun the {producer!r} subcommand")


class ConfigError(HorizonLabError):
    """Run configuration is missing, malformed, or inconsistent."""
