"""Tests for backend specs, the one way to choose execution, and their threading."""

from __future__ import annotations

import inspect
import os

import pytest

from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign
from repro.cluster import ClusterBackend
from repro.core import ArrayVirtualGateExtractor
from repro.exceptions import ConfigurationError
from repro.execution import (
    ProcessPoolBackend,
    SerialBackend,
    backend_from_spec,
    backend_names,
    register_backend,
)
from repro.scenariospace import run_draws, success_surface


class TestBareNames:
    """A bare name builds the backend's defaults."""

    def test_none_and_serial_run_in_process(self):
        assert isinstance(backend_from_spec(None), SerialBackend)
        assert isinstance(backend_from_spec("serial"), SerialBackend)

    def test_process_is_one_worker_per_cpu(self):
        backend = backend_from_spec("process")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == (os.cpu_count() or 1)

    def test_cluster_is_two_local_workers(self):
        backend = backend_from_spec("cluster")
        assert isinstance(backend, ClusterBackend)
        assert backend.max_workers == 2
        assert repr(backend) == repr(ClusterBackend())


class TestClusterSpecs:
    def test_cluster_is_registered(self):
        assert "cluster" in backend_names()

    def test_local_spec_sets_the_worker_count(self):
        backend = backend_from_spec("cluster:local:4")
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
        backend = backend_from_spec("process:8")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 8

    @pytest.mark.parametrize("spec", ["process:", "process:two", "process:0"])
    def test_malformed_process_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigurationError, match="process"):
            backend_from_spec(spec)

    @pytest.mark.parametrize("spec", ["serial:4", "serial:"])
    def test_parameterless_backends_refuse_parameters(self, spec):
        with pytest.raises(ConfigurationError, match="parameter"):
            backend_from_spec(spec)

    @pytest.mark.parametrize("spec", ["", ":4"])
    def test_nameless_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigurationError):
            backend_from_spec(spec)

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


@pytest.mark.parametrize(
    "func",
    [
        TuningCampaign,
        backend_from_spec,
        register_backend,
        ProcessPoolBackend,
        ArrayVirtualGateExtractor,
        run_draws,
        success_surface,
    ],
    ids=lambda func: func.__name__,
)
def test_execution_is_chosen_only_by_a_backend_spec(func):
    parameters = inspect.signature(func).parameters
    assert not {"n_workers", "chunk_size", "spec_factory"} & set(parameters)
