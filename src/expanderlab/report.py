"""The one JSON form shared by every result dataclass.

A report's dict holds every dataclass field by name, then each property the
class names in `derived`.  Nested reports become dicts, tuples and lists
become lists, and Fractions become "p/q" strings.  Any other value is kept
as it is, so an object json cannot encode (a numpy scalar, say) still fails
loudly when the dict is dumped.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from typing import ClassVar


def _plain(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    return value


class Report:
    """Mixin for result dataclasses: to_dict() gives their JSON form."""

    derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        names = [f.name for f in fields(self)] + list(self.derived)
        return {name: _plain(getattr(self, name)) for name in names}
