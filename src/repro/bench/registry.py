"""Registry of all regenerable experiments.

Maps experiment ids to their regeneration functions so the CLI's
``regen`` command and external tooling can enumerate everything the
repository reproduces without knowing the module layout.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Dict, Union

from .experiments import (
    figure1_protocol_sketch,
    figure3_timelines,
    figure4_protocol_comparison,
    figure5_expected_time,
    figure6_stddev,
    table1_standalone,
    table2_breakdown,
    table3_vkernel,
)
from .tables import ExperimentSeries, ExperimentTable

__all__ = ["EXPERIMENTS", "build_experiment", "render_experiment",
           "regenerate_all"]

Artifact = Union[ExperimentTable, ExperimentSeries, str]

#: id -> zero-argument regeneration function.
EXPERIMENTS: Dict[str, Callable[[], Artifact]] = {
    "table1": table1_standalone,
    "table2": table2_breakdown,
    "table3": table3_vkernel,
    "figure1": figure1_protocol_sketch,
    "figure3": figure3_timelines,
    "figure4": figure4_protocol_comparison,
    "figure5": figure5_expected_time,
    "figure6": figure6_stddev,
}


def build_experiment(experiment_id: str, n_jobs: int = 1) -> Artifact:
    """Regenerate one experiment.

    ``n_jobs`` is forwarded to the experiments that accept it (the Monte
    Carlo ones; the closed-form tables and figures do not); results are
    identical for every worker count.
    """
    if experiment_id not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    func = EXPERIMENTS[experiment_id]
    if "n_jobs" in inspect.signature(func).parameters:
        return func(n_jobs=n_jobs)
    return func()


def render_experiment(experiment_id: str, n_jobs: int = 1) -> str:
    """Regenerate one experiment and render it as text, a series with
    its plot."""
    artifact = build_experiment(experiment_id, n_jobs)
    if isinstance(artifact, str):
        return artifact
    text = artifact.render()
    if isinstance(artifact, ExperimentSeries):
        log = artifact.x_label.startswith("p_")
        text += "\n\n" + artifact.render_plot(
            width=64, height=16, log_x=log, log_y=log
        )
    return text


def regenerate_all(out_dir: Union[str, Path], n_jobs: int = 1) -> Dict[str, Path]:
    """Regenerate every experiment into ``out_dir``; returns id -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for experiment_id in EXPERIMENTS:
        path = out / f"{experiment_id}.txt"
        path.write_text(render_experiment(experiment_id, n_jobs=n_jobs) + "\n")
        written[experiment_id] = path
    return written
