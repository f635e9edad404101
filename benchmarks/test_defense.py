"""Benchmark: defense ablation (the paper's future-work direction).

Sweeps placement perturbation and net lifting on one design through
the ``defense-sweep`` grid (``Client().defense_sweep``), measuring how
the proximity attack degrades and what the defenses cost in wirelength
— the security/PPA trade-off a defender navigates.  Every sweep point
is an independent build-and-attack cell, so the sweep honours
``REPRO_WORKERS`` for multi-process fan-out.  Written to
``results/defense_bench.txt``.
"""

from __future__ import annotations

import pytest

from repro.api import Client
from repro.pipeline import clear_memo

from conftest import save_report

pytestmark = pytest.mark.slow

DESIGN = "c880"
SPLIT_LAYER = 3
PERTURBATIONS = (4.0, 8.0, 16.0)
LIFT_FRACTIONS = (0.25, 0.5)


@pytest.fixture(scope="module", autouse=True)
def scratch_layout_cache(tmp_path_factory):
    """Defended layouts are built into a module temp cache: the sweep
    times their construction, and they stay out of the committed warm
    ``.repro_cache``."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("defense_cache"))
        )
        clear_memo()
        yield
    clear_memo()


def run_sweep_report(**kwargs):
    with Client(backend="local", store=False) as client:
        return client.defense_sweep(  # proximity only: keeps the budget
            DESIGN, split_layer=SPLIT_LAYER, with_flow=False, **kwargs
        ).report()


@pytest.fixture(scope="module")
def sweep_report():
    report = run_sweep_report(
        perturbations=PERTURBATIONS, lift_fractions=LIFT_FRACTIONS
    )
    save_report("defense_bench.txt", report.render())
    return report


def test_defense_sweep_runtime(benchmark):
    """Times the build-and-attack sweep itself (single point so the
    benchmark measures the real work, not table rendering)."""
    report = benchmark.pedantic(
        run_sweep_report,
        kwargs=dict(perturbations=(PERTURBATIONS[0],), lift_fractions=()),
        rounds=1,
        iterations=1,
    )
    assert len(report.cells) == 2  # baseline + one perturbation


def test_perturbation_sweep(sweep_report):
    """CCR and wirelength vs perturbation strength."""
    base = sweep_report.baseline
    perturbed = [c for c in sweep_report.cells if c.kind == "perturb"]
    assert len(perturbed) == len(PERTURBATIONS)
    strongest = max(perturbed, key=lambda c: c.strength)
    assert strongest.ccr_proximity < base.ccr_proximity, (
        "defense had no effect on the attack"
    )
    assert strongest.wirelength > base.wirelength, (
        "perturbation should cost wirelength"
    )


def test_lifting_sweep(sweep_report):
    """Hidden pins and CCR vs lift fraction."""
    base = sweep_report.baseline
    lifted = sorted(
        (c for c in sweep_report.cells if c.kind == "lift"),
        key=lambda c: c.strength,
    )
    assert len(lifted) == len(LIFT_FRACTIONS)
    hidden = [base.hidden_pins] + [c.hidden_pins for c in lifted]
    assert hidden == sorted(hidden), "lifting must monotonically hide more pins"
    assert hidden[-1] > 2 * hidden[0], "50% lifting should hide far more pins"
