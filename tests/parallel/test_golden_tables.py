"""Golden-number regression tests for Tables 3, 4 and 5 and Figure 4.

The checked-in ``benchmarks/results/table{3,4,5}.txt`` and
``figure4.txt`` artefacts were produced at paper scale (seed 2011,
repeats=2).  These tests recompute every metric row through the sweep
engine and pin each cell against the parsed golden value to 1e-9
(after the renderer's own rounding), and re-render Figure 4's k-means
cluster ranges, so a refactor cannot silently drift the reproduction.

This is the most expensive test module in tier 1 (~15 s: one
paper-scale generation plus the three sweeps); everything downstream
shares the module-scoped fixtures.

The whole module runs under a live :class:`SamplingProfiler` (autouse
fixture below): the profiler reads frames and touches no RNG, so a
profiled study must stay bit-identical to an unprofiled one — any
drift in these pinned cells while sampling is live is a profiler
isolation bug, not a numerics change.
"""

import math
from pathlib import Path

import pytest

from repro.core import CrashPronenessStudy
from repro.core.reporting import format_cell, render_box_ranges
from repro.obs import SamplingProfiler
from repro.parallel import SweepExecutor, ThresholdDatasetCache
from repro.roads import QDTMRSyntheticGenerator, paper_scale_config

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
GOLDEN_SEED = 2011  # benchmarks/conftest.py BENCH_SEED
TOLERANCE = 1e-9


def parse_golden(name: str) -> dict[int, list[str]]:
    """threshold → row tokens of one checked-in table artefact."""
    lines = (GOLDEN_DIR / f"{name}.txt").read_text().strip().splitlines()
    rows: dict[int, list[str]] = {}
    for line in lines[3:]:  # skip title, header, rule
        tokens = line.split()
        assert tokens[0] == ">", f"unexpected row in {name}: {line!r}"
        rows[int(tokens[1])] = tokens[2:]
    return rows


def assert_cell(label: str, token: str, value: float) -> None:
    """One golden cell: rendered ``value`` must equal ``token`` to 1e-9."""
    if token == "-":
        assert math.isnan(value), f"{label}: expected NaN, got {value!r}"
        return
    if token.endswith("%"):
        got = float(f"{100 * value:.2f}")
        want = float(token[:-1])
    else:
        got = float(format_cell(float(value)))
        want = float(token)
    assert abs(got - want) < TOLERANCE, (
        f"{label}: golden {want} != recomputed {got}"
    )


@pytest.fixture(scope="module", autouse=True)
def live_profiler():
    """Sample continuously while the golden sweeps run.

    The teardown assertion guards the guarantee itself: a profiler
    that silently captured nothing would make this determinism check
    vacuous.
    """
    with SamplingProfiler(hz=50) as profiler:
        yield profiler
    assert profiler.stats()["samples"] > 0, (
        "profiler captured no samples during the golden sweeps"
    )


@pytest.fixture(scope="module")
def study():
    dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
        seed=GOLDEN_SEED
    )
    return CrashPronenessStudy(dataset, seed=GOLDEN_SEED, repeats=2)


@pytest.fixture(scope="module")
def engine():
    cache = ThresholdDatasetCache()
    with SweepExecutor(n_jobs=1) as executor:
        yield executor, cache


@pytest.fixture(scope="module")
def phase1(study, engine):
    executor, cache = engine
    return study.run_phase1(executor=executor, cache=cache)


@pytest.fixture(scope="module")
def phase2(study, engine):
    executor, cache = engine
    return study.run_phase2(executor=executor, cache=cache)


@pytest.fixture(scope="module")
def bayes(study, engine):
    executor, cache = engine
    return study.run_supporting_sweep(
        "bayes", folds=10, executor=executor, cache=cache
    )


def check_tree_table(name: str, phase) -> None:
    golden = parse_golden(name)
    assert sorted(golden) == phase.thresholds()
    for row in phase.results:
        tokens = golden[row.threshold]
        label = f"{name} cp-{row.threshold}"
        assert_cell(f"{label} r2", tokens[0], row.r_squared)
        assert int(tokens[1]) == row.regression_leaves, f"{label} reg leaves"
        assert_cell(f"{label} npv", tokens[2], row.npv)
        assert_cell(f"{label} ppv", tokens[3], row.ppv)
        assert_cell(
            f"{label} misclass", tokens[4], row.misclassification_rate
        )
        assert int(tokens[5]) == row.decision_leaves, f"{label} dec leaves"


class TestGoldenTables:
    def test_table3_pinned(self, phase1):
        check_tree_table("table3", phase1)

    def test_table4_pinned(self, phase2):
        check_tree_table("table4", phase2)

    def test_table5_pinned(self, bayes):
        golden = parse_golden("table5")
        assert sorted(golden) == [r.threshold for r in bayes]
        for row in bayes:
            tokens = golden[row.threshold]
            a = row.assessment
            label = f"table5 cp-{row.threshold}"
            values = (
                a.accuracy,
                a.npv,
                a.ppv,
                a.weighted_precision,
                a.weighted_recall,
                a.roc_area,
                a.kappa,
            )
            for token, value, field in zip(
                tokens,
                values,
                ("correct", "npv", "ppv", "wp", "wr", "roc", "kappa"),
            ):
                assert_cell(f"{label} {field}", token, value)

    def test_cache_shared_across_families(self, phase2, bayes, engine):
        """Phase 2 and the Bayes sweep model the same crash-only table:
        the second family must be all cache hits."""
        _, cache = engine
        assert cache.hits >= len(bayes)


class TestGoldenFigure4:
    def test_figure4_pinned(self, study):
        """Every cluster's box range (min, quartiles, max, in the chart's
        order of cluster means), the band mix and the ANOVA line, rendered
        as ``benchmarks/bench_figure4.py`` renders them."""
        golden = (GOLDEN_DIR / "figure4.txt").read_text().splitlines()
        analysis = study.run_phase3(n_clusters=32)
        profiles = analysis.profiles
        chart = render_box_ranges(
            [
                (f"cluster {p.cluster_id:02d}", p.minimum, p.q1, p.median, p.q3, p.maximum)
                for p in profiles
            ],
            title=golden[0],
            axis_max=min(80.0, max(p.maximum for p in profiles)),
        )
        assert chart.splitlines() == golden[: 1 + 32]
        assert f"band mix: {analysis.band_counts()}" in golden
        anova = analysis.anova
        assert (
            f"ANOVA: F={anova.f_statistic:.1f}, p={anova.p_value:.3g}, "
            f"eta^2={anova.eta_squared:.3f}"
        ) in golden
