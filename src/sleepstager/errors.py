"""The faults a command reports, one class per kind, each with the exit code
and stderr label ``cli.main`` gives it; a fault is raised where it is detected."""


class SleepstagerError(Exception):
    """A fault a command reports; subclasses set ``exit_code`` and ``label``."""
    exit_code: int
    label: str


class UsageError(SleepstagerError):
    """Bad command line or flag value."""
    exit_code, label = 1, "usage error"


class ConfigError(SleepstagerError, ValueError):
    """Malformed config file, unknown key, or out-of-range value."""
    exit_code, label = 1, "config error"


class DataValidationError(SleepstagerError, ValueError):
    """An input file or signal violates the format contract."""
    exit_code, label = 2, "data error"


class NumericError(SleepstagerError):
    """Numeric breakdown: non-finite training values, failed gradient check.
    ``member`` is the diverged network's place in its training group, if any."""
    exit_code, label = 3, "numeric failure"

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member
