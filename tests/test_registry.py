"""Tests for the one registry type behind every catalogue."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.registry import Registry


@pytest.fixture
def colours() -> Registry[int]:
    registry: Registry[int] = Registry("colour")
    for value, name in enumerate(("red", "green", "blue")):
        registry.register(name, value)
    return registry


class TestRegistry:
    def test_register_returns_the_entry(self):
        entry = object()
        assert Registry("thing").register("a", entry) is entry

    def test_entries_keep_registration_order(self, colours):
        assert colours.names() == ("red", "green", "blue")
        assert colours.values() == (0, 1, 2)
        assert colours.items() == (("red", 0), ("green", 1), ("blue", 2))

    def test_get_returns_the_registered_entry(self, colours):
        assert colours.get("green") == 1

    def test_duplicate_name_rejected_naming_the_kind(self, colours):
        with pytest.raises(ConfigurationError, match="colour 'red' is already registered"):
            colours.register("red", 9)
        assert colours.get("red") == 0

    def test_overwrite_replaces_in_place(self, colours):
        colours.register("green", 7, overwrite=True)
        assert colours.get("green") == 7
        assert colours.names() == ("red", "green", "blue")

    def test_unknown_name_lists_known_names(self, colours):
        with pytest.raises(
            ConfigurationError, match=r"unknown colour 'mauve'; known: red, green, blue"
        ):
            colours.get("mauve")

    def test_unknown_name_in_empty_registry(self):
        with pytest.raises(ConfigurationError, match=r"unknown colour 'red'; known: \(none\)"):
            Registry("colour").get("red")

    def test_unregister_returns_and_removes(self, colours):
        assert colours.unregister("green") == 1
        assert colours.names() == ("red", "blue")
        with pytest.raises(ConfigurationError, match="unknown colour 'green'"):
            colours.get("green")

    def test_unregister_unknown_name_rejected(self, colours):
        with pytest.raises(ConfigurationError, match="unknown colour 'mauve'"):
            colours.unregister("mauve")
        assert colours.names() == ("red", "green", "blue")

    def test_reregister_after_unregister_moves_to_the_end(self, colours):
        colours.unregister("red")
        colours.register("red", 0)
        assert colours.names() == ("green", "blue", "red")
