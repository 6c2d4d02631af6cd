"""One name → entry registry type behind every catalogue in the library.

Scenarios, tuning pipelines, fault conditions, lint rules and execution
backends are each one :class:`Registry` instance, so they share one
duplicate policy, one error vocabulary and one iteration order:

* entries keep registration order;
* registering a taken name raises unless ``overwrite=True``;
* every failure is a :class:`~repro.exceptions.ConfigurationError` that
  names the registry's kind — ``unknown scenario 'x'; known: ...``.

What differs between catalogues stays with the catalogue: the pipeline
aliases, each kind's plain-text catalogue formatter, and entry validation
(a fault condition must hold fault models).
"""

from __future__ import annotations

from typing import Generic, TypeVar

from .exceptions import ConfigurationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one kind, in registration order."""

    def __init__(self, kind: str) -> None:
        #: What an entry is, for error messages (``"scenario"``).
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T, overwrite: bool = False) -> T:
        """Add ``entry`` under ``name`` (returns it, so it chains)."""
        if name in self._entries and not overwrite:
            raise ConfigurationError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self._entries) or "(none)"
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; known: {known}"
            ) from None

    def unregister(self, name: str) -> T:
        """Remove the entry under ``name``, returning it."""
        entry = self.get(name)
        del self._entries[name]
        return entry

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def values(self) -> tuple[T, ...]:
        """Registered entries, in registration order."""
        return tuple(self._entries.values())

    def items(self) -> tuple[tuple[str, T], ...]:
        """``(name, entry)`` pairs, in registration order."""
        return tuple(self._entries.items())
