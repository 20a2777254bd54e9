"""Exception types shared across the package, the one check of config fields and
the one builder of a config section."""

import math
import numbers
import operator
from dataclasses import field, fields


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, empty dataset, bad parameters."""


class FieldError(ConfigurationError):
    """A value breaks its config field's type, finiteness or bound; the message
    starts with the field's name."""


class NumericalFailureError(RuntimeError):
    """A rollout produced a non-finite state or action.

    `step_index` is the time step and `episode` the episode's index in its
    rollout call, when the failure has them.
    """

    def __init__(self, message, step_index=None, episode=None):
        super().__init__(message)
        self.step_index = step_index
        self.episode = episode


class InsufficientDataError(ValueError):
    """Dataset too small for the requested K-nearest-neighbor query."""


class InfeasibleCalibrationError(ValueError):
    """The requested quantile index exceeds the calibration sample size."""


class InvariantError(RuntimeError):
    """Internal bookkeeping disagrees with itself; this is a bug, not bad input."""


# bound keyword -> (the test a value must pass, its words in a message)
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<="),
           "one_of": (lambda value, choices: value in choices, "one of")}


def bounded(*, metadata=None, **kwargs):
    """A dataclass field whose values (a list's items) must meet the bound given as
    keywords `gt`, `ge`, `lt`, `le`, or be one of the names `one_of` holds; the
    other keywords go to `dataclasses.field`."""
    bound = {op: kwargs.pop(op) for op in _BOUNDS if op in kwargs}
    return field(metadata={**(metadata or {}), "bound": bound}, **kwargs)


# field type -> (whether a value has it, what an error says a value must be)
FIELD_TYPES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(FIELD_TYPES["int"][0], v)),
                  "integers"),
    "dict": (lambda v: isinstance(v, dict) and all(isinstance(k, str) for k in v),
             "a dict of section keys"),
}


def _bound_text(bound: dict) -> str:
    if len(bound) == 1:
        (op, limit), = bound.items()
        return f"be {_BOUNDS[op][1]} {', '.join(limit) if op == 'one_of' else limit}"
    low, high = bound.get("gt", bound.get("ge")), bound.get("lt", bound.get("le"))
    return f"lie in {'(' if 'gt' in bound else '['}{low}, {high}{')' if 'lt' in bound else ']'}"


def check_value(name: str, kind: str, value, bound=None) -> None:
    """Check `value` against field type `kind`, a key of FIELD_TYPES (a `| None` type
    also takes None, numpy numbers count), then a float's finiteness (a NaN passes
    every comparison), then `bound`; raise a FieldError naming `name`."""
    plain = kind.removesuffix(" | None")
    if value is None and plain != kind:
        return
    accepts, expected = FIELD_TYPES[plain]
    if not accepts(value):
        raise FieldError(f"{name}: expected {expected}, got {value!r}")
    for item in value if plain == "list[int]" else [value]:
        if plain == "float" and not math.isfinite(item):
            raise FieldError(f"{name} must be finite, got {item!r}")
        if bound and not all(_BOUNDS[op][0](item, limit) for op, limit in bound.items()):
            raise FieldError(f"{name} must {_bound_text(bound)}, got {item!r}")


def check_fields(config) -> None:
    """`check_value` on each field of the dataclass `config`, by its declared type and
    bound; a field that declares its INI section is named `section.key`."""
    for f in fields(config):
        name = f"{f.metadata['section']}.{f.name}" if "section" in f.metadata else f.name
        check_value(name, f.type, getattr(config, f.name), f.metadata.get("bound"))


def build_section(section: str, cls, values: dict, /, **given):
    """`cls` built from section `values` and `given` (keys its caller sets); a key
    `cls` lacks or `given` sets, or a value its check rejects, is named `section.key`."""
    names = {f.name for f in fields(cls)}
    for key in values:
        if key not in names or key in given:
            raise ConfigurationError(f"unknown config key {section}.{key}")
    try:
        return cls(**given, **values)
    except FieldError as exc:
        raise FieldError(f"{section}.{exc}") from None
