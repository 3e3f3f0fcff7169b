"""Exception types shared across the package.

ConfigError, BudgetError and FormatError map to CLI exit codes 2, 3 and 5;
any other GmfsError exits 2; an OSError (a path that cannot be read or
written) exits 6; everything else is ordinary ValueError-style misuse.
"""


class GmfsError(Exception):
    """Base class for package-specific failures."""


class ConfigError(GmfsError):
    """Malformed or inconsistent experiment configuration."""


class BudgetError(GmfsError):
    """A computation was refused because it exceeds a configured budget
    (table size, the exact operator's law size, 64-bit count overflow)."""


class FormatError(GmfsError):
    """A q-table file is truncated, corrupt, of an unknown format, or its
    payload does not match its header."""
