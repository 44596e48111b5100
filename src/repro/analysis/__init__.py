"""Analytical models of the paper: error-free times, expected times under
loss, standard deviations, and the Monte Carlo strategy simulator."""

from .chunking import expected_multiblast_time, optimal_blast_size
from .errorfree import (
    network_utilization,
    t_blast,
    t_double_buffered,
    t_single_exchange,
    t_sliding_window,
    t_stop_and_wait,
)
from .expected_time import (
    expected_time_blast,
    expected_time_saw,
    mean_retries,
    p_fail_blast,
    p_fail_saw_exchange,
)
from .montecarlo import (
    STRATEGIES,
    RoundCostModel,
    TransferSample,
    TrialSummary,
    run_trials,
    simulate_blast_transfer,
    simulate_saw_transfer,
)
from .variance import (
    geometric_failure_std,
    stddev_full_no_nak,
    stddev_full_with_nak,
    stddev_full_with_nak_exact,
)

__all__ = [
    "t_stop_and_wait",
    "t_sliding_window",
    "t_blast",
    "t_double_buffered",
    "t_single_exchange",
    "network_utilization",
    "p_fail_saw_exchange",
    "p_fail_blast",
    "mean_retries",
    "expected_time_saw",
    "expected_multiblast_time",
    "optimal_blast_size",
    "expected_time_blast",
    "geometric_failure_std",
    "stddev_full_no_nak",
    "stddev_full_with_nak",
    "stddev_full_with_nak_exact",
    "STRATEGIES",
    "RoundCostModel",
    "TransferSample",
    "TrialSummary",
    "run_trials",
    "simulate_blast_transfer",
    "simulate_saw_transfer",
]
