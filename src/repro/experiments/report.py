"""One-call regeneration of the paper's full evaluation.

Used by ``examples/reproduce_paper.py`` and handy in notebooks: runs all
experiments and renders the same rows/series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.adaptation import AdaptationResult, adaptation_experiment
from repro.experiments.calibration import (
    APP_FACTORIES,
    CLUSTER_FACTORIES,
    MAX_WORKERS,
)
from repro.experiments.classify import AppClassification, classify_applications, format_table
from repro.experiments.dynamics import DynamicsResult, dynamics_experiment
from repro.experiments.scalability import ScalabilityResult, scalability_experiment

__all__ = ["EvaluationReport", "run_full_evaluation"]


@dataclass
class EvaluationReport:
    """Everything §5 of the paper reports, regenerated."""

    scalability: dict[str, ScalabilityResult] = field(default_factory=dict)
    adaptation: dict[str, AdaptationResult] = field(default_factory=dict)
    dynamics: dict[str, DynamicsResult] = field(default_factory=dict)
    classification: list[AppClassification] = field(default_factory=list)

    def render(self) -> str:
        sections = []
        figure = 6
        for app_id, sweep in self.scalability.items():
            sections.append(f"=== Figure {figure}: {sweep.format_table()}")
            figure += 1
        figure = 9
        for app_id, result in self.adaptation.items():
            sections.append(
                f"=== Figure {figure}(b): {result.format_table()}\n"
                f"    signal cycle: {' → '.join(result.signals_in_order)}; "
                f"class loads: {result.class_loads}"
            )
            figure += 1
        for app_id, result in self.dynamics.items():
            sections.append(f"=== Experiment 3: {result.format_table()}")
        if self.classification:
            sections.append("=== " + format_table(self.classification))
        return "\n\n".join(sections)


def run_full_evaluation(
    scalability: bool = True,
    adaptation: bool = True,
    dynamics: bool = True,
    classification: bool = True,
    progress=None,
) -> EvaluationReport:
    """Regenerate every experiment; ``progress(msg)`` reports stages."""
    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    report = EvaluationReport()
    for app_id in APP_FACTORIES:
        app_factory = APP_FACTORIES[app_id]
        cluster_factory = CLUSTER_FACTORIES[app_id]
        if scalability:
            note(f"scalability sweep — {app_id}")
            report.scalability[app_id] = scalability_experiment(
                app_factory, cluster_factory,
                list(range(1, MAX_WORKERS[app_id] + 1)),
            )
        if adaptation:
            note(f"adaptation protocol — {app_id}")
            report.adaptation[app_id] = adaptation_experiment(
                app_factory, cluster_factory
            )
        if dynamics:
            note(f"dynamic behaviour — {app_id}")
            report.dynamics[app_id] = dynamics_experiment(
                app_factory, cluster_factory,
                workers=4 if app_id != "option-pricing" else 8,
            )
    if classification:
        note("Table 2 classification")
        # Graded from the Fig 6-8 sweeps when they ran, not re-simulated.
        report.classification = classify_applications(report.scalability)
    return report
