"""Bitmask helpers used across the engine, and a fill-once descriptor.

Subsets of a finite carrier are ints with bit i set iff element i belongs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def full_mask(n: int) -> int:
    return (1 << n) - 1


def render_subset(mask: int, names: tuple[str, ...]) -> str:
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


class filled_once:
    """A derived attribute of an immutable value, computed on first read.

    A non-data descriptor: the first read stores the value on the instance
    under the attribute's own name, which then shadows the descriptor, so
    every later read is a plain instance read.  It stores through
    object.__setattr__, so frozen dataclasses can use it, and neither writes
    to __dict__ (which slows every later attribute read) nor takes a lock,
    as functools.cached_property does.  A value stored under the name
    beforehand, as by a constructor, is kept and never computed.
    """

    def __init__(self, compute: Callable[[Any], Any]):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = self.compute(instance)
        object.__setattr__(instance, self.name, value)
        return value
