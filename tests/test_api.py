"""Public API surface tests."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_all_sorted_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.chip.geometry",
            "repro.chip.floorplan",
            "repro.chip.benchmarks",
            "repro.variation.components",
            "repro.variation.correlation",
            "repro.variation.pca",
            "repro.variation.quadtree",
            "repro.variation.wafer",
            "repro.variation.sampling",
            "repro.stats.weibull",
            "repro.stats.quadform",
            "repro.stats.integration",
            "repro.stats.histogram",
            "repro.stats.mutual_info",
            "repro.thermal.grid",
            "repro.thermal.solver",
            "repro.thermal.hotspot",
            "repro.power.activity",
            "repro.power.model",
            "repro.power.loop",
            "repro.core.obd_model",
            "repro.core.blod",
            "repro.core.closed_form",
            "repro.core.ensemble",
            "repro.core.hybrid",
            "repro.core.guardband",
            "repro.core.montecarlo",
            "repro.core.lifetime",
            "repro.core.analyzer",
            "repro.core.burnin",
            "repro.core.sensitivity",
            "repro.leakage.degradation",
            "repro.thermal.transient",
            "repro.variation.extraction",
            "repro.io.hotspot_files",
            "repro.io.design_json",
            "repro.io.tables",
            "repro.cli",
            "repro.units",
            "repro.errors",
        ],
    )
    def test_module_importable_and_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"

    def test_error_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.FloorplanError, repro.ConfigurationError)
        assert issubclass(repro.SolverError, repro.NumericalError)
        assert issubclass(repro.NumericalError, repro.ReproError)

    def test_methods_tuple(self):
        assert set(repro.METHODS) == {
            "st_fast",
            "st_mc",
            "hybrid",
            "temp_unaware",
            "guard",
            "mc",
        }

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"
