"""Tests for the n-dot array extension (sequential pairwise extraction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExtractionError
from repro.instrument import SessionFactory
from repro.physics import DotArrayDevice
from repro.pipeline import ArrayVirtualGateExtractor


@pytest.fixture(scope="module")
def triple_dot_result():
    device = DotArrayDevice.linear_array(n_dots=3)
    extractor = ArrayVirtualGateExtractor(SessionFactory(device, resolution=63), seed=21)
    return device, extractor.extract()


class TestTripleDot:
    def test_runs_n_minus_one_pairs(self, triple_dot_result):
        _, outcome = triple_dot_result
        assert outcome.n_pairs == 2
        assert [(r.dot_a, r.dot_b) for r in outcome.pair_records] == [(0, 1), (1, 2)]
        assert [(r.gate_x, r.gate_y) for r in outcome.pair_records] == [
            ("P1", "P2"),
            ("P2", "P3"),
        ]

    def test_all_pairs_succeed_and_match_truth(self, triple_dot_result):
        _, outcome = triple_dot_result
        assert outcome.all_pairs_succeeded
        assert outcome.max_alpha_error() < 0.08

    def test_matrix_structure(self, triple_dot_result):
        device, outcome = triple_dot_result
        matrix = outcome.virtualization.matrix
        assert matrix.shape == (3, 3)
        assert np.allclose(np.diag(matrix), 1.0)
        # Neighbouring couplings were measured, so they are non-zero ...
        assert matrix[0, 1] > 0 and matrix[1, 0] > 0
        assert matrix[1, 2] > 0 and matrix[2, 1] > 0
        # ... while non-neighbouring entries stay at zero (not measured by the
        # sequential pairwise procedure of the paper).
        assert matrix[0, 2] == 0.0 and matrix[2, 0] == 0.0
        assert outcome.virtualization.is_complete_chain()

    def test_costs_accumulate(self, triple_dot_result):
        _, outcome = triple_dot_result
        per_pair = [r.result.probe_stats for r in outcome.pair_records]
        assert outcome.total_probes == sum(p.n_probes for p in per_pair)
        assert outcome.total_elapsed_s == pytest.approx(sum(p.elapsed_s for p in per_pair))

    def test_metadata(self, triple_dot_result):
        device, outcome = triple_dot_result
        assert outcome.metadata["n_dots"] == 3
        assert outcome.metadata["device"] == device.name


class TestValidation:
    def test_single_dot_rejected(self):
        device = DotArrayDevice.linear_array(n_dots=1)
        with pytest.raises(ExtractionError):
            ArrayVirtualGateExtractor(SessionFactory(device, resolution=32)).extract()

    def test_tiny_resolution_rejected(self):
        device = DotArrayDevice.linear_array(n_dots=3)
        with pytest.raises(ExtractionError):
            ArrayVirtualGateExtractor(SessionFactory(device, resolution=4))
