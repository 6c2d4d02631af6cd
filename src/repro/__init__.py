"""Fast virtual gate extraction for silicon quantum dot devices.

A from-scratch reproduction of *"Fast Virtual Gate Extraction For Silicon
Quantum Dot Devices"* (Che et al., DAC 2024): the probe-efficient extraction
algorithm itself, the full-scan Canny+Hough baseline it is compared against,
and every substrate the evaluation needs — a constant-interaction device
simulator, a charge-sensor model, measurement-noise models, dwell-time
instrument accounting, and a qflow-like twelve-benchmark suite.

Typical use::

    from repro import (
        DotArrayDevice, CSDSimulator, ExperimentSession, FastVirtualGateExtractor,
    )

    device = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
    csd = CSDSimulator(device).simulate(resolution=100, seed=1)
    session = ExperimentSession.from_csd(csd)
    result = FastVirtualGateExtractor().extract(session)
    print(result.matrix.matrix, result.probe_stats.probe_fraction)
"""

from .baseline import BaselineConfig, HoughBaselineExtractor
from .campaign import (
    CampaignGrid,
    CampaignJob,
    CampaignResult,
    DeviceSpec,
    TuningCampaign,
)
from .cluster import ClusterBackend, ClusterStats, LocalCluster
from .core import (
    ArrayVirtualGateExtractor,
    ArrayVirtualization,
    ExtractionConfig,
    ExtractionResult,
    FastVirtualGateExtractor,
    VirtualizationMatrix,
)
from .exceptions import ReproError
from .execution import (
    CheckpointJournal,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    RunController,
    SerialBackend,
)
from .faults import (
    FaultModel,
    FaultyBackend,
    fault_names,
    get_fault,
    register_fault,
)
from .instrument import (
    ChargeSensorMeter,
    ExperimentSession,
    MeterSnapshot,
    ProbeRetryPolicy,
    SessionFactory,
    TimingModel,
    VirtualClock,
)
from .kernelcache import (
    KernelCache,
    KernelCacheStats,
    clear_kernel_cache,
    configure_kernel_cache,
    default_kernel_cache,
    kernel_fingerprint,
)
from .physics import (
    CapacitanceModel,
    ChargeSensor,
    ChargeStabilityDiagram,
    CSDSimulator,
    DeviceDrift,
    DotArrayDevice,
    SolverStats,
    standard_lab_noise,
)
from .pipeline import (
    StageTelemetry,
    TuneContext,
    TuningPipeline,
    get_pipeline,
    pipeline_names,
    register_pipeline,
)
from .scenarios import (
    LabScenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .scenariospace import (
    MinedRegression,
    ScenarioParams,
    ScenarioSpace,
    SurfaceReport,
    distill_failure,
    mine_failures,
    success_surface,
)
from .seeding import spawn_seeds

__version__ = "1.0.0"

__all__ = [
    "BaselineConfig",
    "HoughBaselineExtractor",
    "CampaignGrid",
    "CampaignJob",
    "CampaignResult",
    "DeviceSpec",
    "TuningCampaign",
    "ArrayVirtualGateExtractor",
    "ArrayVirtualization",
    "ExtractionConfig",
    "ExtractionResult",
    "FastVirtualGateExtractor",
    "VirtualizationMatrix",
    "ReproError",
    "CheckpointJournal",
    "ClusterBackend",
    "ClusterStats",
    "ExecutionBackend",
    "LocalCluster",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunController",
    "SerialBackend",
    "FaultModel",
    "FaultyBackend",
    "fault_names",
    "get_fault",
    "register_fault",
    "ChargeSensorMeter",
    "ExperimentSession",
    "MeterSnapshot",
    "ProbeRetryPolicy",
    "KernelCache",
    "KernelCacheStats",
    "clear_kernel_cache",
    "configure_kernel_cache",
    "default_kernel_cache",
    "kernel_fingerprint",
    "StageTelemetry",
    "TuneContext",
    "TuningPipeline",
    "get_pipeline",
    "pipeline_names",
    "register_pipeline",
    "SessionFactory",
    "TimingModel",
    "VirtualClock",
    "spawn_seeds",
    "CapacitanceModel",
    "ChargeSensor",
    "ChargeStabilityDiagram",
    "CSDSimulator",
    "DeviceDrift",
    "DotArrayDevice",
    "SolverStats",
    "standard_lab_noise",
    "LabScenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "MinedRegression",
    "ScenarioParams",
    "ScenarioSpace",
    "SurfaceReport",
    "distill_failure",
    "mine_failures",
    "success_surface",
    "__version__",
]
