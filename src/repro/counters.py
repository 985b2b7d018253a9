"""One base for the additive counter dataclasses (I/O, buffer, cache, maintenance)."""

from __future__ import annotations

import dataclasses
from functools import cache
from operator import attrgetter, sub
from typing import Callable, TypeVar

__all__ = ["Counters"]

_C = TypeVar("_C", bound="Counters")


@cache
def _layout(cls: type) -> tuple[tuple[str, ...], Callable[[object], tuple[int, ...]]]:
    """``cls``'s counter names and a reader of all its counters as a tuple,
    built once per class so the per-query ``snapshot``/``since`` stay cheap."""
    names = tuple(field.name for field in dataclasses.fields(cls))
    read = attrgetter(*names)
    return names, read if len(names) > 1 else lambda counters: (read(counters),)


class Counters:
    """Base of ``@dataclass`` classes whose fields are all integer counters.

    ``reset``/``snapshot``/``since``/``accumulate`` are derived from the
    subclass's fields, so adding a counter is one line.
    """

    def reset(self) -> None:
        for name in _layout(type(self))[0]:
            setattr(self, name, 0)

    def snapshot(self: _C) -> _C:
        """A copy of the current counters (diffed against later by :meth:`since`)."""
        return type(self)(*_layout(type(self))[1](self))

    def since(self: _C, earlier: _C) -> _C:
        """The counter deltas accumulated since ``earlier`` was snapshotted."""
        read = _layout(type(self))[1]
        return type(self)(*map(sub, read(self), read(earlier)))

    def accumulate(self, other: Counters) -> None:
        """Add ``other``'s counters into this one (merging per-shard or per-tick reports)."""
        names, read = _layout(type(self))
        for name, mine, theirs in zip(names, read(self), read(other)):
            setattr(self, name, mine + theirs)
