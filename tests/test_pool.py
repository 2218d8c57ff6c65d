"""The shared process pool: workers >= 1, capped at the CPU count, and results
that do not depend on the worker count."""

import os

import pytest

from abckit import enumerate_triples
from abckit import pool
from abckit.cli import dispatch
from abckit.errors import BadParameter

FAKE_CPUS = 4


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and tasks, runs serially."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.log[-1]["tasks"] = len(tasks)
        return map(fn, tasks)


@pytest.fixture
def pools(monkeypatch):
    log = []
    monkeypatch.setattr(os, "cpu_count", lambda: FAKE_CPUS)
    monkeypatch.setattr(pool, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(log, max_workers))
    return log


RUNS = {
    "enumerate_triples": lambda workers: enumerate_triples(5, 2000, workers=workers),
}


class TestWorkerContract:
    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("workers", [0, -1])
    def test_below_one_rejected(self, name, workers):
        with pytest.raises(BadParameter):
            RUNS[name](workers)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_huge_count_capped_at_cpus(self, pools, name):
        capped = RUNS[name](10**6)
        assert len(pools) == 1
        assert pools[0]["max_workers"] == FAKE_CPUS == os.cpu_count()
        assert pools[0]["tasks"] == FAKE_CPUS
        assert capped == RUNS[name](1)
        assert len(pools) == 1  # one worker never builds a pool

    def test_pool_map_runs_serially_for_one_worker_or_task(self, pools):
        assert pool._pool_map(abs, [-1, -2, -3], 1) == [1, 2, 3]
        assert pool._pool_map(abs, [-5], 10**6) == [5]
        assert pools == []
        assert pool._pool_map(abs, [-1, -2], 10**6) == [1, 2]
        assert pools == [{"max_workers": 2, "tasks": 2}]

    def test_pool_map_rejects_zero_workers(self):
        with pytest.raises(BadParameter):
            pool._pool_map(abs, [1], 0)

    @pytest.mark.parametrize("argv", [
        ["sml", "decide", "--c1", "10", "--c2", "-31", "--c3", "30",
         "--a0", "1", "--a1", "0", "--a2", "-12"],
        ["calibrate", "--theorem", "2", "--H-limit", "20"],
        ["xyz", "search", "--P", "5", "--limit", "100", "--out", os.devnull],
    ])
    def test_cli_rejects_zero_workers(self, capsys, argv):
        assert dispatch(argv + ["--workers", "0"]) == 1
        err = capsys.readouterr().err
        if argv[0] in ("sml", "calibrate"):  # serial: neither has a --workers flag
            assert "unrecognized arguments: --workers 0" in err
        else:
            assert "workers must be at least 1" in err
