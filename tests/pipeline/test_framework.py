"""The four-stage framework driver."""

import pytest

from repro.advisor.report import PlacementReport
from repro.analysis.attribution import attribute_samples
from repro.analysis.objects import ObjectKind
from repro.analysis.profile import ProfileSet
from repro.apps.registry import _REGISTRY, get_app
from repro.pipeline.framework import HybridMemoryFramework
from repro.units import MIB


@pytest.fixture()
def fw(tiny_app, machine):
    return HybridMemoryFramework(tiny_app, machine)


class TestStages:
    def test_profile_cached(self, fw):
        assert fw.profile() is fw.profile()

    def test_profile_force_reruns(self, fw):
        first = fw.profile()
        assert fw.profile(force=True) is not first

    def test_analyze_produces_profiles(self, fw):
        profiles = fw.analyze()
        labels = {p.key.label for p in profiles}
        assert any("alloc_matrix" in l for l in labels)
        assert "lookup_table" in labels  # static identified by name

    def test_analysis_matches_ground_truth(self, fw):
        """The sampled estimate must approximate the full miss counts
        — the statistical-approximation property the paper relies on."""
        truth = fw.profile().ground_truth
        profiles = fw.analyze()
        key = fw.app.site_key(fw.app.find_object("hot_vector"))
        profile = next(
            p for p in profiles if p.key.identity == key
        )
        assert profile.estimated_misses == pytest.approx(
            truth.misses_by_site["hot_vector"], rel=0.10
        )

    def test_advise_returns_report(self, fw):
        report = fw.advise(64 * MIB, "misses-0%")
        assert isinstance(report, PlacementReport)
        assert report.strategy == "misses-0%"
        assert report.budgets["MCDRAM"] == fw.app.scaled(64 * MIB)

    def test_advise_budget_scaled_spec(self, fw):
        spec = fw.memory_spec(64 * MIB)
        assert spec.tier("MCDRAM").budget == fw.app.scaled(64 * MIB)

    def test_strategy_instance_accepted(self, fw):
        from repro.advisor.strategies import DensityStrategy

        report = fw.advise(64 * MIB, DensityStrategy())
        assert report.strategy == "density"

    def test_run_full_pass(self, fw):
        run = fw.run(128 * MIB, "density")
        assert run.outcome.fom > 0
        assert run.report.strategy == "density"
        assert run.profiling is fw.profile()

    def test_virtual_advisor_budget(self, fw):
        run = fw.run(64 * MIB, "density", advisor_budget_real=256 * MIB)
        # The advisor planned with 4x the enforcement budget: it may
        # select more bytes than the library will ever admit.
        assert run.outcome.hwm_bytes <= 64 * MIB * 1.01

    def test_report_round_trips_through_file(self, fw, tmp_path):
        """Stage 3 -> file -> stage 4, like the real toolchain."""
        report = fw.advise(128 * MIB, "misses-0%")
        path = tmp_path / "placement.report"
        report.save(path)
        loaded = PlacementReport.load(path)
        outcome = fw.run_placed(loaded, 128 * MIB)
        direct = fw.run_placed(report, 128 * MIB)
        assert outcome.fom == pytest.approx(direct.fom)

    def test_static_recommendation_emitted(self, fw):
        report = fw.advise(256 * MIB, "misses-0%")
        names = {
            e.key.identity for e in report.static_recommendations
            if e.key.kind == ObjectKind.STATIC
        }
        assert "lookup_table" in names


class TestMemorySpecUnits:
    """Every TierSpec.budget must live in the scaled world — mixing a
    scaled fast budget with raw real slow capacities would make slow
    tiers effectively bottomless against scaled object sizes."""

    def test_all_budgets_scaled(self, tiny_app, machine):
        assert tiny_app.scale != 1  # precondition: worlds differ
        fw = HybridMemoryFramework(tiny_app, machine)
        spec = fw.memory_spec(64 * MIB)
        assert spec.tier("MCDRAM").budget == tiny_app.scaled(64 * MIB)
        ddr = machine.tier("DDR")
        assert spec.tier("DDR").budget == tiny_app.scaled(ddr.capacity)
        # And therefore scaled DDR no longer dwarfs the fast budget by
        # the scale factor itself.
        ratio = spec.tier("DDR").budget / spec.tier("MCDRAM").budget
        assert ratio == pytest.approx(ddr.capacity / (64 * MIB), rel=0.05)


class TestColumnarProfileConservation:
    """The framework analyses exactly the samples its tracer picked,
    for every registered application, and the vector kernel agrees
    with the per-event oracle on the same trace."""

    @pytest.fixture(scope="class", params=sorted(_REGISTRY))
    def profiled(self, request):
        fw = HybridMemoryFramework(get_app(request.param))
        return fw.profile(), fw.analyze()

    def test_every_picked_sample_is_analysed(self, profiled):
        profiling, profiles = profiled
        attributed = sum(p.sampled_misses for p in profiles.profiles)
        assert profiling.tracer.n_samples > 0
        assert (
            attributed + profiles.unresolved_samples + profiles.stack_samples
            == profiling.tracer.n_samples
        )
        assert profiling.trace.n_samples == profiling.tracer.n_samples

    def test_profiles_equal_the_per_event_oracle(self, profiled):
        profiling, profiles = profiled
        trace = profiling.trace
        oracle = ProfileSet.from_attribution(
            attribute_samples(trace.to_tracefile()),
            sampling_period=trace.sampling_period,
            application=trace.application,
        )
        assert profiles == oracle
