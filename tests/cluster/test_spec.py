"""Tests for parameterised backend specs and their campaign threading."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign
from repro.cluster import ClusterBackend
from repro.exceptions import ConfigurationError
from repro.execution import ProcessPoolBackend, backend_from_spec, backend_names


class TestClusterSpecs:
    def test_cluster_is_registered(self):
        assert "cluster" in backend_names()

    def test_bare_name_uses_the_worker_count(self):
        backend = backend_from_spec("cluster", n_workers=3)
        assert isinstance(backend, ClusterBackend)
        assert backend.max_workers == 3

    def test_local_spec_sets_the_worker_count(self):
        backend = backend_from_spec("cluster:local:4", n_workers=1)
        assert isinstance(backend, ClusterBackend)
        assert backend.max_workers == 4

    def test_address_spec_selects_listen_mode(self):
        backend = backend_from_spec("cluster:10.0.0.5:7077")
        assert isinstance(backend, ClusterBackend)
        assert "host='10.0.0.5'" in repr(backend)
        assert "port=7077" in repr(backend)

    @pytest.mark.parametrize(
        "spec",
        [
            "cluster:",
            "cluster:local",
            "cluster:local:",
            "cluster:local:zero",
            "cluster:local:0",
            "cluster:10.0.0.5:http",
            "cluster:10.0.0.5:",
        ],
    )
    def test_malformed_cluster_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigurationError, match="cluster"):
            backend_from_spec(spec)


class TestProcessSpecs:
    def test_worker_count_parameter(self):
        backend = backend_from_spec("process:8", n_workers=1)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 8

    @pytest.mark.parametrize("spec", ["process:", "process:two", "process:0"])
    def test_malformed_process_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigurationError, match="process"):
            backend_from_spec(spec)

    def test_parameterless_backends_refuse_parameters(self):
        with pytest.raises(ConfigurationError, match="parameter"):
            backend_from_spec("serial:4")

    def test_unknown_backend_still_lists_the_catalogue(self):
        with pytest.raises(ConfigurationError, match="serial"):
            backend_from_spec("quantum:4")


class TestCampaignSpecThreading:
    @pytest.fixture(scope="class")
    def grid(self):
        return CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(40,),
            noise_scales=(0.0,),
            n_repeats=1,
            seed=5,
        )

    def test_spec_string_lands_in_result_metadata(self, grid):
        result = TuningCampaign(grid, backend="process:2").run()
        assert result.metadata["backend"] == "process"
        assert result.metadata["backend_spec"] == "process:2"

    def test_default_backend_records_its_name_as_spec(self, grid):
        result = TuningCampaign(grid).run()
        assert result.metadata["backend"] == "serial"
        assert result.metadata["backend_spec"] == "serial"

    def test_spec_is_stripped_from_the_normalized_view(self, grid):
        spec_run = TuningCampaign(grid, backend="process:2").run()
        serial_run = TuningCampaign(grid).run()
        assert spec_run.normalized() == serial_run.normalized()

    def test_chunk_size_knob_still_guards_non_process_backends(self, grid):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            TuningCampaign(grid, backend="cluster:local:2", chunk_size=3)
        # The process spec keeps the knob, parameters and all.
        TuningCampaign(grid, backend="process:2", chunk_size=3)
