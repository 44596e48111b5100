"""Tests for the workload generators."""

import pytest

from repro.workloads import (
    PAPER_TABLE_SIZES,
    file_size_mix,
    make_trace,
    page_cluster_sizes,
    paper_table_sizes,
)


class TestSizes:
    def test_paper_table_sizes(self):
        assert paper_table_sizes() == [1024, 4096, 16384, 65536]
        assert PAPER_TABLE_SIZES == (1024, 4096, 16384, 65536)

    def test_page_cluster_sizes_are_power_of_two_clusters(self):
        sizes = page_cluster_sizes(base_page=4096, max_cluster=16, count=500, seed=1)
        assert len(sizes) == 500
        allowed = {4096 * c for c in (1, 2, 4, 8, 16)}
        assert set(sizes) <= allowed

    def test_page_cluster_small_sizes_more_frequent(self):
        sizes = page_cluster_sizes(count=2000, seed=2)
        assert sizes.count(4096) > sizes.count(65536)

    def test_page_cluster_deterministic(self):
        assert page_cluster_sizes(seed=3) == page_cluster_sizes(seed=3)
        assert page_cluster_sizes(seed=3) != page_cluster_sizes(seed=4)

    def test_page_cluster_validation(self):
        with pytest.raises(ValueError):
            page_cluster_sizes(base_page=0)

    def test_file_size_mix_bounds(self):
        sizes = file_size_mix(count=1000, max_bytes=1 << 20, seed=5)
        assert all(1 <= s <= 1 << 20 for s in sizes)

    def test_file_size_mix_long_tailed(self):
        sizes = sorted(file_size_mix(count=2000, seed=6))
        median = sizes[len(sizes) // 2]
        assert max(sizes) > 10 * median  # heavy tail

    def test_file_size_mix_validation(self):
        with pytest.raises(ValueError):
            file_size_mix(count=-1)
        with pytest.raises(ValueError):
            file_size_mix(median_bytes=0)


class TestTraces:
    def test_trace_shape(self):
        trace = make_trace(n_files=10, n_requests=200, seed=7)
        assert len(trace.requests) == 200
        assert len(trace.files) == 10
        assert all(r.filename in trace.files for r in trace.requests)
        assert all(r.size == trace.files[r.filename] for r in trace.requests)

    def test_read_fraction_respected(self):
        trace = make_trace(n_requests=2000, read_fraction=0.8, seed=8)
        reads = sum(request.op == "read" for request in trace.requests)
        assert reads / len(trace.requests) == pytest.approx(0.8, abs=0.05)

    def test_popularity_skew(self):
        trace = make_trace(n_files=20, n_requests=5000, seed=9)
        counts = {}
        for request in trace.requests:
            counts[request.filename] = counts.get(request.filename, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # Hot file gets far more traffic than a cold one (Zipf).
        assert ranked[0] > 5 * ranked[-1]

    def test_deterministic(self):
        assert make_trace(seed=10) == make_trace(seed=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trace(n_files=0)
        with pytest.raises(ValueError):
            make_trace(read_fraction=1.5)

    def test_request_validation(self):
        from repro.workloads import AccessRequest

        with pytest.raises(ValueError):
            AccessRequest(op="delete", filename="f", size=1)
        with pytest.raises(ValueError):
            AccessRequest(op="read", filename="f", size=-1)
