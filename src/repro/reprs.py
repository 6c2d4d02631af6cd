"""Content-based ``__repr__`` support for fingerprint-bearing objects.

Checkpoint fingerprints (:func:`repro.campaign.engine.campaign_fingerprint`)
and the contract audit (:mod:`repro.lint.contracts`) both require that an
object's repr describe its *content*, never its memory address: CPython's
default ``object.__repr__`` embeds ``0x…``, which changes on every process
start, so any identity built from it can never match on resume.

:class:`ContentRepr` is the one-line fix for plain (non-dataclass) classes:
it renders every instance attribute, sorted by name, with leading
underscores stripped — ``ProcessPoolBackend(max_workers=4)``
— which is stable across processes as long as the attribute values
themselves repr by content.
"""

from __future__ import annotations

import re

__all__ = ["ADDRESS_REPR", "ContentRepr", "content_repr", "has_address_repr"]

#: The shape of CPython's default ``object.__repr__`` — "<... at 0x7f...>".
ADDRESS_REPR = re.compile(r"\b0x[0-9a-fA-F]{4,}\b")


def content_repr(obj: object) -> str:
    """A ``Class(attr=value, ...)`` repr from the instance's attributes."""
    pairs = ", ".join(
        f"{name.lstrip('_')}={value!r}" for name, value in sorted(vars(obj).items())
    )
    return f"{type(obj).__name__}({pairs})"


def has_address_repr(obj: object) -> bool:
    """Whether ``repr(obj)`` embeds a memory address (recursively included
    sub-reprs count: one address-bearing attribute poisons the whole repr)."""
    return ADDRESS_REPR.search(repr(obj)) is not None


class ContentRepr:
    """Mixin giving a class a content-based, address-free ``__repr__``."""

    def __repr__(self) -> str:
        return content_repr(self)
