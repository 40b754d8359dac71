"""Exception hierarchy for the package, and the checks that raise ConfigError."""


class ArgosError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(ArgosError):
    """Bad concrete syntax; carries the character position of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ArgosError):
    """A predicate used with the wrong number of arguments."""


class UndeclaredEntityError(ArgosError):
    """Strict parsing hit a constant outside the declared entity universe."""


class GroundingError(ArgosError):
    """Quantifier expansion failed (empty universe, depth, unbound variable)."""


class SolverBudgetExceeded(ArgosError):
    """The SAT solver ran out of its conflict budget."""


class CorpusError(ArgosError):
    """A problem file or corpus directory violated the expected schema."""


class BackendError(ArgosError):
    """An LLM backend failed to service a request."""


class BackendExhausted(BackendError):
    """All transport retries failed."""


class ConfigError(ArgosError, ValueError):
    """A setting outside its valid values."""


def check_setting(where: str, value, check) -> None:
    """Raise ConfigError naming ``where``, ``value`` and what was wanted,
    unless ``value`` passes ``check``, a (predicate, wanted) pair."""
    valid, want = check
    if not valid(value):
        raise ConfigError(f"{where}: expected {want}, got {value!r}")


def check_fields(obj, table) -> None:
    """Check each field of ``obj`` that ``table`` maps to its check."""
    for name, check in table.items():
        check_setting(f"field {name!r}", getattr(obj, name), check)


def is_int(value) -> bool:
    """An int that is not a bool: JSON's true and false are no numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def one_of(*options) -> tuple:
    """The check that a value is one of ``options``."""
    return (lambda v: v in options, " or ".join(map(repr, options)))
