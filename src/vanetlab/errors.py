"""The package's errors: one class per command-line exit code."""


class VanetlabError(Exception):
    """A runtime error, and the base of DataError and ConfigError; the
    command line exits with the class's exit_code."""

    exit_code = 4


class DataError(VanetlabError):
    """Input data cannot support the requested work."""

    exit_code = 3


class ConfigError(VanetlabError):
    """Scenario configuration is invalid or out of range."""

    exit_code = 2
