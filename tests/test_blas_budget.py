"""Tests for the serving thread budget (:mod:`repro.cluster.blas`).

The cap logic runs against fake library handles, so it is checked on
any platform; one test drives the OpenBLAS that numpy really loaded
and skips where there is none.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ThreadWorkerPool
from repro.cluster.blas import BlasBudget, loaded_openblas, usable_cores
from repro.engine import SimilarityConfig
from repro.graph.generators import random_digraph
from repro.serve import ServingService

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=5)


class FakeOpenBlas:
    """A library handle whose thread count is a plain attribute."""

    def __init__(self, path: str, threads: int) -> None:
        self.path = path
        self.threads = threads
        self.sets: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.sets.append(threads)
        self.threads = threads


def budget_over(*libs) -> BlasBudget:
    return BlasBudget(find=lambda: list(libs))


@pytest.mark.parametrize(
    "cores, lanes, cap",
    [(8, 1, 8), (8, 2, 4), (8, 3, 2), (8, 8, 1), (2, 4, 1), (1, 1, 1)],
)
def test_cap_is_cores_over_lanes(cores, lanes, cap):
    lib = FakeOpenBlas("a.so", 64)
    budget = budget_over(lib)
    assert budget.acquire(lanes, cores=cores) == cap
    assert lib.threads == cap
    assert budget.threads() == cap
    budget.release(cap)
    assert lib.threads == 64


def test_cap_never_raises_the_start_count():
    lib = FakeOpenBlas("a.so", 2)
    budget = budget_over(lib)
    cap = budget.acquire(1, cores=8)
    assert cap == 8
    assert lib.threads == 2 and lib.sets == []
    budget.release(cap)
    assert lib.threads == 2 and lib.sets == []


@pytest.mark.parametrize("first_out", [True, False])
def test_overlapping_pools_take_the_smallest_cap(first_out):
    libs = FakeOpenBlas("numpy.so", 8), FakeOpenBlas("scipy.so", 6)
    budget = budget_over(*libs)
    wide = budget.acquire(2, cores=8)
    assert [lib.threads for lib in libs] == [4, 4]
    narrow = budget.acquire(8, cores=8)
    assert [lib.threads for lib in libs] == [1, 1]
    if first_out:
        budget.release(wide)
        assert [lib.threads for lib in libs] == [1, 1]
        budget.release(narrow)
    else:
        budget.release(narrow)
        assert [lib.threads for lib in libs] == [4, 4]
        budget.release(wide)
    # the last stop restores each library's own start count
    assert [lib.threads for lib in libs] == [8, 6]
    assert budget.threads() == 8


def test_library_loaded_while_capped_is_capped_and_restored():
    early, late = FakeOpenBlas("numpy.so", 4), FakeOpenBlas("scipy.so", 4)
    loaded = [early]
    budget = BlasBudget(find=lambda: list(loaded))
    first = budget.acquire(2, cores=4)
    loaded.append(late)
    second = budget.acquire(2, cores=4)
    assert (early.threads, late.threads) == (2, 2)
    budget.release(first)
    budget.release(second)
    assert (early.threads, late.threads) == (4, 4)


def test_budget_is_a_no_op_without_openblas():
    budget = BlasBudget(find=list)
    cap = budget.acquire(3, cores=6)
    assert cap == 2
    assert budget.threads() is None
    budget.release(cap)
    assert budget.threads() is None


def test_pool_caps_the_loaded_openblas():
    libs = loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [lib.get() for lib in libs]
    pool = ThreadWorkerPool(workers=2)
    pool.start()
    try:
        cap = max(1, usable_cores() // 2)
        assert [lib.get() for lib in libs] == [min(b, cap) for b in before]
        assert pool.describe()["blas_threads"] == max(
            min(b, cap) for b in before
        )
        a = np.arange(64.0).reshape(8, 8)
        assert np.array_equal(a @ np.eye(8), a)  # BLAS still answers
    finally:
        pool.stop()
        pool.stop()  # idempotent: the cap is handed back once
    assert [lib.get() for lib in libs] == before


def test_workers_zero_starts_one_lane_per_core():
    graph = random_digraph(30, 90, seed=2)
    service = ServingService(graph, CONFIG, workers=0, telemetry=False)
    lanes = usable_cores()
    assert service.cluster.pool.size == lanes
    service.start_background()
    try:
        assert len(service.top_k_sync(0, k=3)) == 3
        pool = service.status()["cluster"]["pool"]
        assert pool["workers"] == lanes
        if loaded_openblas():
            assert 1 <= pool["blas_threads"] <= max(1, usable_cores() // lanes)
        else:
            assert pool["blas_threads"] is None
    finally:
        service.close()
    assert ServingService(graph, CONFIG, workers=3).cluster.pool.size == 3
    with pytest.raises(ValueError, match="workers"):
        ServingService(graph, CONFIG, workers=-1)


def test_status_cli_shows_the_budget_next_to_workers():
    from repro.serve.__main__ import render_status

    text = render_status({
        "cache": None, "config": {}, "snapshots": {},
        "cluster": {"pool": {"workers": 2, "blas_threads": 1}},
    })
    assert "workers=2 blas_threads=1" in text
