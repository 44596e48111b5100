"""Tests for the deterministic experiment pool and seed sharding."""

import os

import pytest

from repro.analysis import run_trials
from repro.core import run_many
from repro.parallel import (
    DEFAULT_TRIAL_SHARD_SIZE,
    ExperimentPool,
    mix_seed,
    resolve_jobs,
    shard_counts,
)


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(7, 3) == mix_seed(7, 3)

    def test_64_bit_range(self):
        for root in (0, 1, 2**31, 2**63):
            for index in (0, 1, 999):
                assert 0 <= mix_seed(root, index) < 2**64

    def test_no_collisions_on_grid(self):
        seen = {
            mix_seed(root, index)
            for root in range(16)
            for index in range(256)
        }
        assert len(seen) == 16 * 256

    def test_old_linear_derivation_collision_fixed(self):
        # The legacy ``seed * 1_000_003 + index`` scheme made run
        # 1_000_003 of seed 0 identical to run 0 of seed 1.
        assert mix_seed(0, 1_000_003) != mix_seed(1, 0)


class TestResolveJobs:
    def test_none_and_zero_mean_sequential(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(8) == 8

    def test_minus_one_means_all_cpus(self):
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestShardCounts:
    def test_exact_multiple(self):
        assert shard_counts(256, 128) == [128, 128]

    def test_remainder_shard_last(self):
        assert shard_counts(300, 128) == [128, 128, 44]

    def test_zero_items(self):
        assert shard_counts(0, 128) == []

    def test_sum_preserved(self):
        for n in (1, 127, 128, 129, 1000):
            assert sum(shard_counts(n, 128)) == n

    def test_validation(self):
        with pytest.raises(ValueError, match="n_items"):
            shard_counts(-1, 128)
        with pytest.raises(ValueError, match="shard_size"):
            shard_counts(10, 0)


def _double(spec):
    return spec * 2


def _fail_outside_pid(spec):
    """Fails in any process other than the one named in the spec."""
    parent_pid, value = spec
    if os.getpid() != parent_pid:
        raise RuntimeError("worker-side failure")
    return value


def _always_fail(spec):
    raise ValueError(f"bad spec {spec}")


class TestMapShards:
    def test_inline_preserves_order(self):
        pool = ExperimentPool(1)
        assert pool.map_shards(_double, [1, 2, 3]) == [2, 4, 6]

    def test_parallel_matches_inline(self):
        specs = list(range(10))
        inline = ExperimentPool(1).map_shards(_double, specs)
        fanned = ExperimentPool(2).map_shards(_double, specs)
        assert inline == fanned

    def test_worker_failure_retried_in_parent(self):
        # Every shard dies in the worker process but succeeds on the
        # in-parent retry, so the map completes.
        specs = [(os.getpid(), i) for i in range(4)]
        results = ExperimentPool(2).map_shards(_fail_outside_pid, specs)
        assert results == [0, 1, 2, 3]

    def test_deterministic_failure_raises(self):
        with pytest.raises(ValueError, match="bad spec"):
            ExperimentPool(2).map_shards(_always_fail, [1, 2])
        with pytest.raises(ValueError, match="bad spec"):
            ExperimentPool(1).map_shards(_always_fail, [1])


class TestTrialDeterminism:
    """The contract: results never depend on the worker count."""

    KW = dict(d_packets=8, p_n=0.05, n_trials=300, t_retry=0.05, seed=11,
              shard_size=64)

    def test_n_jobs_invariant(self):
        sequential = run_trials("full_nak", **self.KW)
        fanned = run_trials("full_nak", n_jobs=4, **self.KW)
        assert sequential == fanned

    def test_seed_matters(self):
        kw = dict(self.KW)
        kw.pop("seed")
        a = run_trials("full_no_nak", seed=1, **kw)
        b = run_trials("full_no_nak", seed=2, **kw)
        assert a != b

    def test_shard_layout_is_part_of_the_stream(self):
        # Trial shard size is fixed by default exactly so that this
        # cannot happen behind the caller's back.
        kw = dict(self.KW)
        kw.pop("shard_size")
        a = run_trials("full_nak", shard_size=64, **kw)
        b = run_trials("full_nak", shard_size=50, **kw)
        assert a != b
        assert DEFAULT_TRIAL_SHARD_SIZE == 128

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            run_trials("full_nak", 8, 0.05, 0, t_retry=0.05)


class TestTransferDeterminism:
    KW = dict(error_p=0.02, n_runs=12, seed=5)
    DATA = bytes(4 * 1024)

    def test_n_jobs_invariant(self):
        sequential = run_many("blast", self.DATA, **self.KW)
        fanned = run_many("blast", self.DATA, n_jobs=3, **self.KW)
        assert sequential == fanned

    def test_shard_size_invariant(self):
        # DES runs are seeded by global run index, so even the shard
        # layout (unlike Monte Carlo shards) cannot change the result:
        # ten runs are cut 3+3+3+1 at n_jobs=1 and 2+2+2+2+2 at n_jobs=2.
        kw = dict(error_p=0.02, n_runs=10, seed=5)
        sequential = run_many("blast", self.DATA, n_jobs=1, **kw)
        fanned = run_many("blast", self.DATA, n_jobs=2, **kw)
        assert sequential == fanned
        assert sequential.n_runs == 10

    def test_collision_regression(self):
        # seed=0 run 1_000_003 and seed=1 run 0 used to share a loss
        # stream ("seed * 1_000_003 + run"); the mixed seeds — and the
        # coin-flip streams they generate — must now differ.
        import random

        seed_a = mix_seed(0, 1_000_003)
        seed_b = mix_seed(1, 0)
        assert seed_a != seed_b
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
        assert [rng_a.random() for _ in range(8)] != [
            rng_b.random() for _ in range(8)
        ]


class TestEmptySummaries:
    def test_trial_summary_empty_rejected(self):
        from repro.analysis.montecarlo import TrialSummary

        with pytest.raises(ValueError, match="no results to summarise"):
            TrialSummary.from_samples([])

    def test_run_summary_empty_rejected(self):
        from repro.core.runner import RunSummary

        with pytest.raises(ValueError, match="no results to summarise"):
            RunSummary.from_results([])
