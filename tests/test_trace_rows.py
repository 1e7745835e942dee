"""Trace rows priced on the helper thread.

``run_evolution`` prices a generation's test row on one helper thread
when its product (test rows x n x h) reaches ``evolve.OVERLAP_MIN_MACS``,
and inline otherwise or when the best genome has a drop gate. No Tier-1
cell is that large, so these tests patch the constant: at 0 every row
without a drop gate overlaps, at a huge value every row stays inline,
and both must give the same records bit for bit.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dendrevo import evolve
from dendrevo.evolve import EvoConfig, Variant, run_evolution
from dendrevo.net import Network
from dendrevo.nk import Encoding, build_landscape, generate_dataset, generate_datasets

EVERY_ROW = 0
NO_ROW = 10**18


@pytest.fixture(scope="module")
def task():
    land = build_landscape(12, 3, 100)
    rng = np.random.default_rng(400)
    train = generate_dataset(land, 48, Encoding.SIGN_SPLIT, rng)
    test = generate_dataset(land, 40, Encoding.SIGN_SPLIT, rng)
    return land, train, test


class TrackingPool(ThreadPoolExecutor):
    """Records every submitted row and whether the loop took its result.
    A submit while an earlier row is still untaken fails the test."""

    futures: list = []

    def submit(self, fn, *args, **kwargs):
        assert all(f.taken for f in self.futures), "a second row went pending"
        future = super().submit(fn, *args, **kwargs)
        future.taken = False
        result = future.result

        def take(timeout=None):
            future.taken = True
            return result(timeout)

        future.result = take
        self.futures.append(future)
        return future


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(TrackingPool, "futures", [])
    monkeypatch.setattr(evolve, "ThreadPoolExecutor", TrackingPool)
    return TrackingPool


def slow_off_thread_mse(monkeypatch, caller, error=None):
    """Patch ``evolve.mse`` so that a call off the ``caller`` thread sleeps
    (keeping its row in flight while the loop steps) or raises ``error``."""
    direct = evolve.mse

    def mse(net, data, rng=None):
        if threading.get_ident() != caller:
            if error is not None:
                raise error
            time.sleep(0.002)
        return direct(net, data, rng)

    monkeypatch.setattr(evolve, "mse", mse)


def genome_bytes(net: Network) -> list[bytes]:
    return [np.asarray(getattr(net, name)).tobytes() for name in Network.__slots__]


def run_both_ways(monkeypatch, cfg, land, train, test, seed):
    traces = []
    for limit in (EVERY_ROW, NO_ROW):
        monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", limit)
        traces.append(run_evolution(cfg, land, train, test, np.random.default_rng(seed)))
    return traces


@pytest.mark.parametrize("variant", list(Variant))
def test_threaded_rows_equal_inline_rows_bit_for_bit(task, monkeypatch, pool, variant):
    land, train, test = task
    cfg = EvoConfig(p=12, h=3, generations=25, variant=variant)
    threaded, inline = run_both_ways(monkeypatch, cfg, land, train, test, 41)
    assert [repr(r) for r in threaded.records] == [repr(r) for r in inline.records]
    assert genome_bytes(threaded.final_network) == genome_bytes(inline.final_network)
    # A best genome with a drop gate stays inline: its coins come from the
    # run's rng, and the helper, which passes none, would raise on it.
    inline_rows = cfg.generations + 1 - len(pool.futures)
    if variant is Variant.RANDOM_DROPOUT:
        assert 0 < inline_rows < cfg.generations + 1
    else:
        assert inline_rows == 0


def test_threaded_rows_equal_inline_rows_under_resampling(task, monkeypatch, pool):
    land, train, test = task
    cfg = EvoConfig(
        p=12, h=3, generations=20, variant=Variant.DENDRITE_RANGE,
        resample_train_each_generation=True,
    )
    threaded, inline = run_both_ways(monkeypatch, cfg, land, train, test, 42)
    assert [repr(r) for r in threaded.records] == [repr(r) for r in inline.records]
    assert genome_bytes(threaded.final_network) == genome_bytes(inline.final_network)
    assert len(pool.futures) == cfg.generations + 1


def test_at_most_one_row_is_pending_and_every_row_is_taken(task, monkeypatch, pool):
    land, train, test = task
    monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", EVERY_ROW)
    slow_off_thread_mse(monkeypatch, threading.get_ident())
    cfg = EvoConfig(p=6, h=2, generations=15, variant=Variant.DENDRITE_THRESHOLD)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        trace = run_evolution(cfg, land, train, test, np.random.default_rng(7))
    finally:
        sys.setswitchinterval(interval)
    assert len(trace.records) == len(pool.futures) == cfg.generations + 1
    assert all(f.taken for f in pool.futures)


def test_an_error_in_a_step_comes_out_and_leaves_no_thread(task, monkeypatch, pool):
    land, train, test = task
    monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", EVERY_ROW)
    slow_off_thread_mse(monkeypatch, threading.get_ident())
    steps = 0
    select = evolve.tournament_select

    def failing_select(pop, rng):
        nonlocal steps
        steps += 1
        if steps == 20:  # mid-generation 4, with generation 3's row in flight
            raise RuntimeError("step failed")
        return select(pop, rng)

    monkeypatch.setattr(evolve, "tournament_select", failing_select)
    before = set(threading.enumerate())
    cfg = EvoConfig(p=6, h=2, generations=10, variant=Variant.DENDRITE_THRESHOLD)
    with pytest.raises(RuntimeError, match="step failed"):
        run_evolution(cfg, land, train, test, np.random.default_rng(8))
    assert len(pool.futures) == 4
    assert set(threading.enumerate()) == before


def test_an_error_in_the_helpers_mse_comes_out_and_leaves_no_thread(task, monkeypatch, pool):
    land, train, test = task
    monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", EVERY_ROW)
    slow_off_thread_mse(monkeypatch, threading.get_ident(), ArithmeticError("row failed"))
    before = set(threading.enumerate())
    cfg = EvoConfig(p=6, h=2, generations=3, variant=Variant.STANDARD)
    with pytest.raises(ArithmeticError, match="row failed"):
        run_evolution(cfg, land, train, test, np.random.default_rng(9))
    assert set(threading.enumerate()) == before


def test_a_returning_run_leaves_no_thread(task, monkeypatch, pool):
    land, train, test = task
    monkeypatch.setattr(evolve, "OVERLAP_MIN_MACS", EVERY_ROW)
    before = set(threading.enumerate())
    run_evolution(EvoConfig(p=6, h=2, generations=3), land, train, test, np.random.default_rng(10))
    assert pool.futures
    assert set(threading.enumerate()) == before


def test_a_desk_size_run_starts_no_thread(monkeypatch, pool):
    """The desk cell (test 1000 x n 100 x h 10) sits below the constant."""
    land = build_landscape(100, 5, 11)
    rng = np.random.default_rng(12)
    train, test = generate_datasets(land, Encoding.SIGN_SPLIT, (200, rng), (1000, rng))
    callers = set()
    direct = evolve.mse

    def mse(net, data, rng=None):
        callers.add(threading.get_ident())
        return direct(net, data, rng)

    monkeypatch.setattr(evolve, "mse", mse)
    cfg = EvoConfig(p=4, generations=2, variant=Variant.DENDRITE_THRESHOLD)
    assert len(test) * train.n * cfg.h < evolve.OVERLAP_MIN_MACS
    trace = run_evolution(cfg, land, train, test, np.random.default_rng(13))
    assert len(trace.records) == 3
    assert pool.futures == []
    assert callers == {threading.get_ident()}

