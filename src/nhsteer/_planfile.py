"""The typing rules of the plan-file format: readers that name the JSON path of a value they refuse.

Each plan type's ``from_json_dict`` reads its fields through a ``Field``,
beside its ``to_json_dict``; what a value means (the index cap,
orthogonality) stays with the type.  A path is formatted only for a refusal,
as in ``phases[0].inputs[1].terms[0].index: expected an integer, got 1.5``.
"""

from __future__ import annotations

import json
import sys

from .errors import PlanFileError

__all__ = ["Field", "document"]

_FLOAT_MAX = sys.float_info.max


def document(data, label: str = "") -> Field:
    """The root ``Field`` of a plan, which must be a JSON object; ``label`` leads its paths."""
    return data if isinstance(data, Field) else Field({label: data}, ()).child(label)


class Field:
    """A JSON object or list and its path: the document's label, then the keys down to it."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: tuple):
        self.value, self.path = value, path

    def _get(self, key, valid, expected):
        """The member at ``key`` if ``valid`` accepts it; ``expected`` describes a valid one, or makes that text."""
        try:
            value = self.value[key]
            if valid(value):
                return value
            got = json.dumps(value, default=repr)
            got = got if len(got) <= 40 else got[:37] + "..."
        except KeyError:
            got = "nothing"
        label, *keys = (*self.path, key)
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys).lstrip(".")
        text = f"expected {expected if isinstance(expected, str) else expected()}, got {got}"
        raise PlanFileError(": ".join(filter(None, (label, path, text))))

    def child(self, key) -> Field:
        return Field(self._get(key, lambda v: type(v) is dict, "an object"), (*self.path, key))

    def seq(self, key, count: int | None = None) -> Field:
        """The list at ``key``, of ``count`` items when given."""
        valid = lambda v: type(v) is list and count in (None, len(v))
        return Field(self._get(key, valid, lambda: f"a list of {count}" if count else "a list"), (*self.path, key))

    def items(self, key, read) -> tuple:
        """``read`` of each item of the list at ``key``, every item an object."""
        items = self.seq(key)
        return tuple(read(items.child(i)) for i in range(len(items.value)))

    def real(self, key) -> float:
        """A JSON number, not a bool, that is finite and fits a float."""
        valid = lambda v: (isinstance(v, float) or type(v) is int) and -_FLOAT_MAX <= v <= _FLOAT_MAX
        return float(self._get(key, valid, "a finite number"))

    def reals(self, key, count: int, *inner: int) -> tuple:
        """A list of ``count`` reals, or with ``inner`` counts of such lists; ``reals(key, 2)`` is a box."""
        items = self.seq(key, count)
        return tuple(items.reals(i, *inner) if inner else items.real(i) for i in range(count))

    def index(self, key) -> int:
        return self._get(key, lambda v: type(v) is int, "an integer")

    def flag(self, key) -> bool:
        return self._get(key, lambda v: type(v) is bool, "true or false")

    def choice(self, key, options=None) -> str:
        """One of the strings ``options``, or any string when they are None."""
        valid = lambda v: type(v) is str and (options is None or v in options)
        return self._get(key, valid, lambda: "one of " + ", ".join(options) if options else "a string")

    def names(self, key, options) -> tuple:
        """A list of strings, each one of ``options``."""
        items = self.seq(key)
        return tuple(items.choice(i, options) for i in range(len(items.value)))

    def mapping(self, key, names=None) -> dict:
        """An object of reals whose keys are ``names``, in order, when given."""
        valid = lambda v: type(v) is dict and (names is None or list(v) == names)
        expected = lambda: "an object naming " + ", ".join(names) if names else "an object"
        obj = Field(self._get(key, valid, expected), (*self.path, key))
        return {name: obj.real(name) for name in obj.value}
