"""repro — process variation and temperature-aware full-chip OBD reliability.

A from-scratch reproduction of Zhuo, Chopra, Sylvester and Blaauw,
"Process Variation and Temperature-Aware Full Chip Oxide Breakdown
Reliability Analysis" (DATE 2010 / IEEE TCAD 2011).

Quick start::

    from repro import ReliabilityAnalyzer, make_benchmark

    analyzer = ReliabilityAnalyzer(make_benchmark("C3"))
    ten_ppm_lifetime = analyzer.lifetime(ppm=10, method="st_fast")

See :mod:`repro.core.analyzer` for the full method list and the
``examples/`` directory for end-to-end scenarios.
"""

from repro.chip.benchmarks import (
    BENCHMARK_DEVICE_COUNTS,
    make_alpha_processor,
    make_benchmark,
    make_manycore,
    make_synthetic_design,
)
from repro.chip.floorplan import Block, Floorplan
from repro.chip.geometry import GridSpec, Rect
from repro.core.analyzer import METHODS, AnalysisConfig, ReliabilityAnalyzer
from repro.core.blod import BlodModel, characterize_blods
from repro.core.burnin import BurnInAnalyzer, ExtrinsicDefectModel
from repro.core.ensemble import (
    BlockReliability,
    StFastAnalyzer,
    StMcAnalyzer,
)
from repro.core.guardband import GuardBandAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.core.lifetime import (
    lifetime_at_ppm,
    lifetime_from_curve,
    ppm_to_reliability,
    solve_lifetime,
)
from repro.core.montecarlo import MonteCarloEngine, ReliabilityCurve
from repro.core.obd_model import (
    DeviceReliabilityParams,
    OBDModel,
    TabulatedOBDModel,
)
from repro.core.sensitivity import (
    SensitivityResult,
    lifetime_sensitivities,
    tornado_text,
)
from repro.core.voltage import (
    VoltageScreeningResult,
    max_vdd_for_target,
    voltage_headroom,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ExecutionInterrupted,
    FloorplanError,
    NumericalError,
    ReproError,
    ServiceError,
    SolverError,
    UnitError,
)
from repro.leakage.degradation import (
    DegradationParams,
    DegradationTrace,
    GateLeakageSimulator,
)
from repro.leakage.population import ChipLeakagePopulation
from repro.power.activity import ActivityProfile
from repro.power.loop import solve_power_thermal
from repro.power.model import BlockPowerModel, PowerModelParams
from repro.report import design_report, format_table, heat_map
from repro.stats.weibull import AreaScaledWeibull
from repro.thermal.grid import PackageModel
from repro.thermal.hotspot import HotSpotLite, ThermalResult
from repro.thermal.transient import TransientResult, TransientSolver
from repro.variation.components import VariationBudget
from repro.variation.correlation import SpatialCorrelationModel
from repro.variation.extraction import (
    ExtractionResult,
    extract_variation_model,
    synthesize_measurements,
)
from repro.variation.pca import CanonicalThicknessModel, build_canonical_model
from repro.variation.quadtree import QuadTreeModel, build_quadtree_model
from repro.variation.sampling import ChipSampler
from repro.variation.wafer import WaferPattern

def _resolve_version() -> str:
    """The installed package version, falling back for source-tree runs.

    Sourced from package metadata so ``pyproject.toml`` stays the single
    authority; an uninstalled checkout (``PYTHONPATH=src``) has no
    distribution metadata and uses the pinned fallback.
    """
    import importlib.metadata

    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        return "1.0.0"


__version__ = _resolve_version()

__all__ = [
    "AdmissionError",
    "AnalysisConfig",
    "ActivityProfile",
    "ExecutionInterrupted",
    "ServiceError",
    "AreaScaledWeibull",
    "BENCHMARK_DEVICE_COUNTS",
    "Block",
    "BlockPowerModel",
    "BlockReliability",
    "BlodModel",
    "BurnInAnalyzer",
    "ExtractionResult",
    "ExtrinsicDefectModel",
    "TransientResult",
    "TransientSolver",
    "VoltageScreeningResult",
    "max_vdd_for_target",
    "voltage_headroom",
    "extract_variation_model",
    "synthesize_measurements",
    "SensitivityResult",
    "lifetime_sensitivities",
    "tornado_text",
    "CanonicalThicknessModel",
    "ChipLeakagePopulation",
    "ChipSampler",
    "ConfigurationError",
    "DegradationParams",
    "DegradationTrace",
    "DeviceReliabilityParams",
    "Floorplan",
    "FloorplanError",
    "GateLeakageSimulator",
    "GridSpec",
    "GuardBandAnalyzer",
    "HotSpotLite",
    "HybridAnalyzer",
    "METHODS",
    "MonteCarloEngine",
    "NumericalError",
    "OBDModel",
    "PackageModel",
    "PowerModelParams",
    "QuadTreeModel",
    "Rect",
    "ReliabilityAnalyzer",
    "ReliabilityCurve",
    "ReproError",
    "SolverError",
    "SpatialCorrelationModel",
    "StFastAnalyzer",
    "StMcAnalyzer",
    "TabulatedOBDModel",
    "ThermalResult",
    "UnitError",
    "VariationBudget",
    "WaferPattern",
    "build_canonical_model",
    "build_quadtree_model",
    "characterize_blods",
    "design_report",
    "format_table",
    "heat_map",
    "lifetime_at_ppm",
    "lifetime_from_curve",
    "make_alpha_processor",
    "make_benchmark",
    "make_manycore",
    "make_synthetic_design",
    "ppm_to_reliability",
    "solve_lifetime",
    "solve_power_thermal",
]
