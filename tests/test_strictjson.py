"""The strict-JSON helpers and the ``@record`` codec (:mod:`repro.strictjson`)."""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields

import pytest

from repro import strictjson
from repro.strictjson import NONFINITE_TAG, dumps, from_dict, loads, record, to_dict


@dataclass(frozen=True)
class Point:
    """A nested dataclass, deliberately not decorated."""

    x: float
    y: float = 0.0


@record
@dataclass(frozen=True)
class Sample:
    count: int
    ratio: float
    label: str
    flag: bool
    maybe: float | None = None
    ids: tuple[int, ...] = ()
    pair: tuple[str, float] = ("a", 1.0)
    points: tuple[Point, ...] = ()
    origin: Point | None = None
    meta: dict = field(default_factory=dict)
    extra: object = None


@record
@dataclass(frozen=True)
class Counted:
    """Used only by the plan-caching test."""

    n: int


@record
@dataclass(frozen=True)
class Empty:
    """A field-less record, like a ``Shutdown`` frame (plan-caching test)."""


@record
@dataclass(frozen=True)
class ListField:
    values: list[int]


@record
@dataclass(frozen=True)
class EitherField:
    value: int | str


REQUIRED = {"count": 1, "ratio": 0.5, "label": "x", "flag": True}


def full_sample(**overrides) -> Sample:
    values = dict(
        count=3,
        ratio=0.25,
        label="s",
        flag=False,
        maybe=1.5,
        ids=(4, 5),
        pair=("b", 2.0),
        points=(Point(1.0, 2.0), Point(3.0)),
        origin=Point(0.5, -0.5),
        meta={"n_jobs": 2, "tags": ["x", "y"]},
        extra=[1, "two", None],
    )
    values.update(overrides)
    return Sample(**values)


def through_json(obj) -> dict:
    return json.loads(json.dumps(obj.as_dict(), allow_nan=False))


class TestEncoding:
    def test_record_installs_the_pair(self):
        assert Sample.as_dict is to_dict
        assert Sample.from_dict(REQUIRED) == from_dict(Sample, REQUIRED)
        assert "as_dict" in vars(Sample) and "from_dict" in vars(Sample)

    def test_every_field_in_field_order(self):
        assert list(full_sample().as_dict()) == [f.name for f in fields(Sample)]

    def test_tuples_become_lists_and_dataclasses_dicts(self):
        assert full_sample().as_dict() == {
            "count": 3,
            "ratio": 0.25,
            "label": "s",
            "flag": False,
            "maybe": 1.5,
            "ids": [4, 5],
            "pair": ["b", 2.0],
            "points": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 0.0}],
            "origin": {"x": 0.5, "y": -0.5},
            "meta": {"n_jobs": 2, "tags": ["x", "y"]},
            "extra": [1, "two", None],
        }

    def test_nonfinite_floats_are_tagged_at_any_depth(self):
        sample = full_sample(
            ratio=float("nan"),
            maybe=float("inf"),
            pair=("b", float("-inf")),
            points=(Point(float("nan")),),
            origin=Point(0.0, float("inf")),
            meta={"deep": [{"value": float("-inf")}]},
            extra=(float("nan"),),
        )
        payload = through_json(sample)  # allow_nan=False would raise otherwise
        assert payload["ratio"] == {NONFINITE_TAG: "nan"}
        assert payload["maybe"] == {NONFINITE_TAG: "inf"}
        assert payload["pair"] == ["b", {NONFINITE_TAG: "-inf"}]
        assert payload["points"] == [{"x": {NONFINITE_TAG: "nan"}, "y": 0.0}]
        assert payload["origin"] == {"x": 0.0, "y": {NONFINITE_TAG: "inf"}}
        assert payload["meta"] == {"deep": [{"value": {NONFINITE_TAG: "-inf"}}]}
        assert payload["extra"] == [{NONFINITE_TAG: "nan"}]


class TestDecoding:
    def test_round_trip_rebuilds_every_type(self):
        sample = full_sample()
        restored = Sample.from_dict(through_json(sample))
        assert restored == sample
        assert isinstance(restored.ids, tuple)
        assert isinstance(restored.pair, tuple)
        assert all(isinstance(point, Point) for point in restored.points)
        assert isinstance(restored.origin, Point)

    def test_nonfinite_floats_untagged_at_any_depth(self):
        sample = full_sample(
            ratio=float("nan"),
            maybe=float("-inf"),
            pair=("b", float("inf")),
            points=(Point(float("nan")),),
            meta={"deep": [float("inf")]},
        )
        restored = Sample.from_dict(through_json(sample))
        assert math.isnan(restored.ratio)
        assert restored.maybe == float("-inf")
        assert restored.pair == ("b", float("inf"))
        assert math.isnan(restored.points[0].x)
        assert restored.meta == {"deep": [float("inf")]}

    def test_unknown_keys_are_ignored(self):
        assert Sample.from_dict({**REQUIRED, "retired_field": [1]}) == Sample(**REQUIRED)

    def test_missing_keys_take_the_field_default(self):
        restored = Sample.from_dict(REQUIRED)
        assert restored == Sample(1, 0.5, "x", True)
        assert restored.meta == {} and restored.points == ()

    def test_missing_required_key_raises(self):
        with pytest.raises(TypeError, match="label"):
            Sample.from_dict({"count": 1, "ratio": 0.5, "flag": True})

    def test_float_accepts_int(self):
        restored = Sample.from_dict({**REQUIRED, "ratio": 2, "pair": ["a", 3]})
        assert restored.ratio == 2.0 and type(restored.ratio) is float
        assert type(restored.pair[1]) is float

    def test_none_is_legal_for_optional_fields(self):
        restored = Sample.from_dict({**REQUIRED, "maybe": None, "origin": None})
        assert restored.maybe is None and restored.origin is None

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("count", True),
            ("count", 1.0),
            ("count", "1"),
            ("count", None),
            ("ratio", False),
            ("ratio", "0.5"),
            ("ratio", None),
            ("ratio", {NONFINITE_TAG: "1.5"}),
            ("ratio", {NONFINITE_TAG: "nan", "other": 1}),
            ("label", 3),
            ("label", None),
            ("flag", 1),
            ("flag", None),
            ("maybe", "1.5"),
            ("ids", 5),
            ("ids", [1, "2"]),
            ("ids", [1, None]),
            ("pair", ["a"]),
            ("pair", ["a", 1.0, 2.0]),
            ("pair", [1, 1.0]),
            ("points", [{"x": "1"}]),
            ("points", [[1.0, 2.0]]),
            ("origin", [1.0, 2.0]),
            ("meta", []),
            ("meta", None),
        ],
    )
    def test_wrong_json_type_raises(self, name, value):
        with pytest.raises(TypeError, match=rf"Sample\.{name}: "):
            Sample.from_dict({**REQUIRED, name: value})

    def test_non_object_payload_raises(self):
        with pytest.raises(TypeError, match="JSON object"):
            Sample.from_dict([1, 0.5, "x", True])


class TestPlan:
    def test_hints_resolve_once_per_class(self, monkeypatch):
        calls = []
        real = typing.get_type_hints

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return real(cls, *args, **kwargs)

        strictjson._PLANS.pop(Counted, None)
        strictjson._PLANS.pop(Empty, None)
        monkeypatch.setattr(typing, "get_type_hints", counting)
        for n in range(3):
            assert Counted.from_dict(Counted(n).as_dict()) == Counted(n)
            assert Empty.from_dict(Empty().as_dict()) == Empty()
        assert calls == [Counted, Empty]

    @pytest.mark.parametrize("cls", [ListField, EitherField], ids=lambda c: c.__name__)
    def test_unsupported_annotation_fails_loudly(self, cls):
        with pytest.raises(TypeError, match="record field"):
            cls.from_dict({"values": [1], "value": 1})


class TestTreeHelpers:
    def test_dumps_loads_round_trip_nested_nonfinite(self):
        tree = {"a": [1.0, float("inf"), {"b": float("-inf")}], "c": None}
        text = dumps(tree)
        assert "Infinity" not in text
        assert loads(text) == tree

    def test_trees_keep_finite_values_and_plain_dicts(self):
        tree = {"x": 1, "y": [1.5, {"z": None}]}
        assert strictjson.encode_tree(tree) == tree
        assert strictjson.decode_tree(tree) == tree
        assert math.isnan(strictjson.decode_tree(strictjson.encode_tree(float("nan"))))
