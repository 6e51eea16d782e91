"""Unit tests for burn-in / screening analysis.

Burn-in's intrinsic population is the scenario engine's ordered
burn-in→field schedule; ``tests/oracles.py`` keeps the per-block
quadrature loop it replaced as the reference.
"""

import numpy as np
import pytest

from repro import AnalysisConfig, ReliabilityAnalyzer, make_benchmark
from repro.core.burnin import BurnInAnalyzer, ExtrinsicDefectModel
from repro.errors import ConfigurationError
from repro.scenario import ScenarioAnalyzer
from tests import oracles


@pytest.fixture(scope="module")
def analyzer(request):
    return request.getfixturevalue("small_analyzer")


@pytest.fixture(scope="module")
def defects():
    return ExtrinsicDefectModel(
        density=5.0e-7, alpha=5.0e5, beta=0.4, acceleration=2000.0
    )


class TestExtrinsicDefectModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExtrinsicDefectModel(density=-1.0)
        with pytest.raises(ConfigurationError):
            ExtrinsicDefectModel(beta=1.5)  # wearout slopes not allowed
        with pytest.raises(ConfigurationError):
            ExtrinsicDefectModel(acceleration=0.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("density", np.nan),
            ("density", np.inf),
            ("alpha", np.nan),
            ("alpha", np.inf),
            ("acceleration", np.nan),
            ("acceleration", np.inf),
        ],
    )
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ExtrinsicDefectModel(**{field: value})

    def test_exponent_monotone_in_time(self, defects):
        e1 = defects.exponent(1e5, t_use=1e3, t_stress=0.0)
        e2 = defects.exponent(1e5, t_use=1e4, t_stress=0.0)
        assert 0.0 < e1 < e2

    def test_burnin_advances_effective_age(self, defects):
        no_burnin = defects.exponent(1e5, t_use=1e3, t_stress=0.0)
        with_burnin = defects.exponent(1e5, t_use=1e3, t_stress=10.0)
        assert with_burnin > no_burnin

    def test_decreasing_hazard(self, defects):
        # Infant mortality: most of the defect failure probability is
        # consumed early.
        area = 1e5
        first_decade = defects.exponent(area, 1e2, 0.0)
        second_decade = defects.exponent(area, 1e3, 0.0) - first_decade
        assert first_decade > second_decade / 9.0  # strongly front-loaded


class TestBurnInIntrinsicOnly:
    def test_burnin_consumes_intrinsic_life(self, analyzer):
        """With no defect population, burn-in can only hurt: wearout slope
        above 1 means no infant mortality to screen."""
        burnin = BurnInAnalyzer(analyzer, defects=None)
        warranty = analyzer.lifetime(1000)  # observable failure level
        f_none = burnin.field_failure_probability(warranty, 0.0)
        f_some = burnin.field_failure_probability(warranty, 24.0)
        assert f_some >= f_none

    def test_zero_burnin_matches_static_analysis(self, analyzer):
        burnin = BurnInAnalyzer(analyzer, defects=None)
        t10 = analyzer.lifetime(10)
        assert burnin.survival(t10, 0.0) == float(analyzer.reliability(t10))

    def test_yield_decreases_with_burnin_time(self, analyzer):
        burnin = BurnInAnalyzer(analyzer, defects=None)
        yields = [burnin.burnin_yield(t) for t in (0.0, 10.0, 100.0)]
        assert yields[0] == pytest.approx(1.0)
        assert yields[0] >= yields[1] >= yields[2]

    def test_stress_condition_accelerates(self, analyzer):
        mild = BurnInAnalyzer(
            analyzer, burnin_temperature=105.0, burnin_vdd=1.25, defects=None
        )
        harsh = BurnInAnalyzer(
            analyzer, burnin_temperature=140.0, burnin_vdd=1.6, defects=None
        )
        assert harsh.burnin_yield(24.0) <= mild.burnin_yield(24.0)


class TestBurnInWithDefects:
    def test_burnin_pays_off_with_infant_mortality(self, analyzer, defects):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        warranty = 5.0 * 8766.0  # five years
        f_none = burnin.field_failure_probability(warranty, 0.0)
        f_screened = burnin.field_failure_probability(warranty, 12.0)
        assert f_screened < f_none

    def test_optimizer_finds_interior_optimum(self, analyzer, defects):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        warranty = 5.0 * 8766.0
        candidates = np.array([0.0, 1.0, 6.0, 24.0, 96.0, 384.0])
        best, curve = burnin.optimize_burnin(warranty, candidates)
        assert set(curve) == set(candidates.tolist())
        # Screening helps, so "no burn-in" is not optimal...
        assert best > 0.0
        # ...but unbounded burn-in consumes intrinsic life: the curve must
        # eventually turn back up (or the longest candidate is not best).
        assert curve[best] <= min(curve.values())

    def test_optimizer_picks_zero_without_defects(self, analyzer):
        burnin = BurnInAnalyzer(analyzer, defects=None)
        warranty = analyzer.lifetime(1000)
        best, _curve = burnin.optimize_burnin(
            warranty, np.array([0.0, 24.0, 96.0])
        )
        assert best == 0.0

    def test_validation(self, analyzer, defects):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        with pytest.raises(ConfigurationError):
            burnin.survival(-1.0, 0.0)
        with pytest.raises(ConfigurationError):
            burnin.field_failure_probability(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            burnin.optimize_burnin(1e4, np.array([]))

    @pytest.mark.parametrize(
        "t_use,t_burnin,name",
        [(np.nan, 1.0, "t_use"), (np.inf, 1.0, "t_use"), (1e3, np.nan, "t_burnin")],
    )
    def test_non_finite_durations_rejected(
        self, analyzer, defects, t_use, t_burnin, name
    ):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        with pytest.raises(ConfigurationError, match=name):
            burnin.survival(t_use, t_burnin)

    def test_non_finite_warranty_rejected(self, analyzer, defects):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        with pytest.raises(ConfigurationError, match="warranty_hours"):
            burnin.field_failure_probability(np.nan, 1.0)

    def test_non_finite_candidate_rejected(self, analyzer, defects):
        burnin = BurnInAnalyzer(analyzer, defects=defects)
        with pytest.raises(ConfigurationError, match="candidates"):
            burnin.optimize_burnin(1e4, np.array([0.0, np.nan, 10.0]))


#: (design, grid) cases and the burn-in x field grid the oracle bounds hold on.
CASES = (("C1", 10), ("C2", 15), ("C3", 25))
BURNIN_HOURS = (0.0, 2.0, 24.0, 192.0, 1000.0)
FIELD_HOURS = (0.0, 1.0, 100.0, 1e4, 4.38e4, 1e5, 1e6)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-g{c[1]}")
def design(request):
    name, grid = request.param
    return ReliabilityAnalyzer(
        make_benchmark(name), config=AnalysisConfig(grid_size=grid)
    )


class TestScenarioPath:
    """Burn-in runs as the ordered burn-in→field scenario on host tables."""

    def test_schedule_shape(self, analyzer):
        burnin = BurnInAnalyzer(analyzer, burnin_temperature=130.0, burnin_vdd=1.4)
        stress, field = burnin.scenario(24.0).phases
        assert (stress.name, stress.duration_hours) == ("burnin", 24.0)
        assert (stress.temperature_c, stress.vdd) == (130.0, 1.4)
        assert (field.name, field.temperature_c, field.vdd) == ("field", None, None)
        assert [p.name for p in burnin.scenario(0.0).phases] == ["field"]

    def test_bad_stress_condition_rejected_at_build(self, analyzer):
        with pytest.raises(ConfigurationError, match="vdd"):
            BurnInAnalyzer(analyzer, burnin_vdd=-1.0)
        with pytest.raises(ConfigurationError, match="temperature"):
            BurnInAnalyzer(analyzer, burnin_temperature=np.nan)

    def test_matches_per_block_oracle(self, design):
        burnin = BurnInAnalyzer(design, defects=None)
        for t_b in BURNIN_HOURS:
            engine = ScenarioAnalyzer(design, burnin.scenario(t_b))
            for t_use in FIELD_HOURS:
                want = oracles.burnin_block_failures(design, t_use, t_b)
                got = engine.entry_failure_probabilities(t_b + t_use)[:, 0]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
                survival = max(1.0 - sum(want.tolist()), 0.0)
                assert burnin.survival(t_use, t_b) == pytest.approx(
                    survival, rel=0.0, abs=5e-15
                )

    def test_zero_burnin_is_host_st_fast(self, design):
        burnin = BurnInAnalyzer(design, defects=None)
        for t_use in FIELD_HOURS:
            assert burnin.survival(t_use, 0.0) == design.st_fast.reliability(t_use)

    def test_zero_burnin_follows_host_rule(self):
        host = ReliabilityAnalyzer(
            make_benchmark("C2"),
            config=AnalysisConfig(grid_size=10, integration_rule="gauss"),
        )
        burnin = BurnInAnalyzer(host, defects=None)
        for t_use in FIELD_HOURS:
            assert burnin.survival(t_use, 0.0) == host.st_fast.reliability(t_use)
