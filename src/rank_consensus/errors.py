"""Exception types shared across the package.

`ConsensusError` covers everything caused by bad input (files or parameters);
the CLI maps it to exit code 1. Anything else escaping the library is treated
as an internal invariant violation (exit code 2).
"""


class ConsensusError(Exception):
    """Base class for expected, user-facing failures."""


class ParameterError(ConsensusError):
    """A parameter is out of range or inconsistent with the ranking set."""


class ParseError(ConsensusError):
    """An input file violates its format."""


class DegenerateConsensusError(ConsensusError):
    """An overall consensus score is zero, so relative deviations are undefined."""


class PatternTableTooLargeError(ConsensusError):
    """The distinct rankings own more patterns than one table may hold."""
