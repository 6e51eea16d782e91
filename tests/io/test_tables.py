"""Unit tests for OBD characterisation tables and hybrid LUT persistence."""

import numpy as np
import pytest

from repro import TabulatedOBDModel
from repro.core.hybrid import HybridAnalyzer
from repro.errors import ConfigurationError
from repro.io.tables import (
    format_obd_table,
    load_hybrid_tables,
    load_obd_table,
    parse_obd_table,
    save_hybrid_tables,
    save_obd_table,
)


@pytest.fixture()
def table_model(obd_model):
    return TabulatedOBDModel.from_model(
        obd_model, np.linspace(50.0, 120.0, 8)
    )


class TestObdTableCsv:
    def test_round_trip(self, table_model):
        rebuilt = parse_obd_table(format_obd_table(table_model))
        np.testing.assert_allclose(
            rebuilt.temperatures, table_model.temperatures
        )
        np.testing.assert_allclose(
            rebuilt.log_alphas, table_model.log_alphas, rtol=1e-7
        )
        np.testing.assert_allclose(rebuilt.bs, table_model.bs, rtol=1e-7)

    def test_file_round_trip(self, tmp_path, table_model):
        path = tmp_path / "obd.csv"
        save_obd_table(table_model, path)
        rebuilt = load_obd_table(path)
        assert rebuilt.alpha(85.0) == pytest.approx(
            table_model.alpha(85.0), rel=1e-6
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigurationError, match="header"):
            parse_obd_table("a,b,c\n1,2,3\n")

    def test_bad_column_count_rejected(self):
        with pytest.raises(ConfigurationError, match="3 columns"):
            parse_obd_table("temperature_c,alpha_hours,b_per_nm\n1,2\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigurationError, match="non-numeric"):
            parse_obd_table("temperature_c,alpha_hours,b_per_nm\na,b,c\n")


class TestHybridPersistence:
    def test_round_trip_queries_identical(self, tmp_path, small_analyzer):
        blocks = small_analyzer.blocks
        hybrid = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        path = tmp_path / "tables.npz"
        save_hybrid_tables(hybrid, path)
        restored = load_hybrid_tables(path, blocks)
        t10 = small_analyzer.lifetime(10)
        times = np.array([t10 / 2.0, t10, 2.0 * t10])
        np.testing.assert_array_equal(
            restored.reliability(times), hybrid.reliability(times)
        )

    def test_block_mismatch_rejected(self, tmp_path, small_analyzer):
        blocks = small_analyzer.blocks
        hybrid = HybridAnalyzer(blocks, n_alpha=10, n_b=10)
        path = tmp_path / "tables.npz"
        save_hybrid_tables(hybrid, path)
        with pytest.raises(ConfigurationError, match="match"):
            load_hybrid_tables(path, blocks[::-1])

    def test_profile_override_still_works(self, tmp_path, small_analyzer):
        blocks = small_analyzer.blocks
        hybrid = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        path = tmp_path / "tables.npz"
        save_hybrid_tables(hybrid, path)
        restored = load_hybrid_tables(path, blocks)
        t10 = small_analyzer.lifetime(10)
        alphas = np.array([b.alpha for b in blocks]) / 2.0
        np.testing.assert_allclose(
            restored.reliability(np.array([t10]), alphas=alphas),
            hybrid.reliability(np.array([t10]), alphas=alphas),
        )
