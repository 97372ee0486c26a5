"""What a sweep run shares among its threads.

Between calls the library keeps only the base draw streams. What it
derives from them (a sorted stream, a hybrid draw layout, a one-arm
cell's tail-free pass) is a run value (``scenarios._run_shared``): built
once per key by the first of the run's threads to ask, under that key's
own lock, and dropped with the run. Outside a run every call builds its
own. Each curve call also fetches each stream it reads once.
"""

import collections
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from borrowsim import (
    ExternalMean,
    HybridScenario,
    MixturePriorSpec,
    OneArmScenario,
    StudentT,
    SufficientStat,
    hybrid,
    onearm,
)
from borrowsim.scenarios import _run_shared, join_run, sorted_normals

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)
SPEC = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 1.0, 20))


def in_run(run, fn, *args):
    """``fn(*args)`` on a new thread that works for ``run``, as a sweep worker does."""
    with ThreadPoolExecutor(1, initializer=join_run, initargs=(run,)) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def test_keys_build_at_once_and_each_once_per_run():
    # Key A's build waits for key B's: a lock held over the whole run
    # would keep B waiting until A gave up.
    run, a_started, b_built = {}, threading.Event(), threading.Event()

    def build_a():
        a_started.set()
        return b_built.wait(timeout=5)

    def build_b():
        b_built.set()
        return "b"

    with ThreadPoolExecutor(2, initializer=join_run, initargs=(run,)) as pool:
        a = pool.submit(_run_shared, "A", build_a)
        assert a_started.wait(timeout=30)
        b = pool.submit(_run_shared, "B", build_b)
        assert b.result(timeout=30) == "b"
        assert a.result(timeout=30) is True
    # More workers than cores asking for the same keys, switching threads
    # often: a key built twice, or a value handed out before it was built,
    # would show as a second build or another object.
    builds = collections.Counter()

    def build(key):
        builds[key] += 1
        return object()

    def ask(i):
        key = i % 16
        return key, _run_shared(key, lambda: build(key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8, initializer=join_run, initargs=({},)) as pool:
            answers = list(pool.map(ask, range(2_000), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert builds == {key: 1 for key in range(16)}
    values = dict(answers)
    assert all(value is values[key] for key, value in answers)


def test_the_sorted_stream_is_a_run_value():
    # Eight asks on four threads of a run get one read-only array; another
    # run, or a call outside a run, sorts the stream again, to the same floats.
    key = (3, "one-arm", "current", 1000)
    with ThreadPoolExecutor(4, initializer=join_run, initargs=({},)) as pool:
        z, *others = pool.map(lambda _: sorted_normals(*key), range(8))
    assert all(other is z for other in others) and not z.flags.writeable
    assert np.all(z[:-1] <= z[1:])
    for other in (in_run({}, sorted_normals, *key), sorted_normals(*key), sorted_normals(*key)):
        assert other is not z and np.array_equal(other, z)


def test_rmse_and_weight_of_a_cell_on_two_threads_of_a_run_share_one_pass(monkeypatch):
    # A cell's RMSE and w̃ take one tail-free pass even when two threads of
    # the run ask for them; another run makes its own, to the same floats.
    passes = []
    original = onearm._bank_stats

    def counting(*args, tails=True, **kwargs):
        passes.append(tails)
        return original(*args, tails=tails, **kwargs)

    monkeypatch.setattr(onearm, "_bank_stats", counting)
    s = OneArmScenario(0.0, 0.5, 20, 1.0, EXT, SPEC, seed=3, reps=2_000)
    run = {}
    rmse = in_run(run, onearm.one_arm_rmse, s, SD_EXT)
    w = in_run(run, onearm.mean_posterior_weight, s, SD_EXT)
    assert passes.count(False) == 1
    assert in_run({}, onearm.mean_posterior_weight, s, SD_EXT) == w
    assert in_run({}, onearm.one_arm_rmse, s, SD_EXT) == rmse
    assert passes.count(False) == 3


def counting_fetches(monkeypatch, module, name):
    """Count the calls of ``module.name`` by stream role."""
    fetches = collections.Counter()
    original = getattr(module, name)

    def counting(seed, scenario_id, role, reps):
        fetches[role] += 1
        return original(seed, scenario_id, role, reps)

    monkeypatch.setattr(module, name, counting)
    return fetches


def test_a_one_arm_curve_fetches_the_sorted_stream_once(monkeypatch):
    fetches = counting_fetches(monkeypatch, onearm, "sorted_normals")
    s = OneArmScenario(0.0, 0.5, 20, 1.0, EXT, SPEC, seed=3, reps=2_000)
    onearm.oc_curve(s, (0.0, SD_EXT, 2 * SD_EXT))
    assert fetches == {"current": 1}


def test_a_hybrid_curve_fetches_each_stream_once(monkeypatch):
    # The layout keeps the control and treatment streams it sorted, and
    # every rate's count reads those.
    fetches = counting_fetches(monkeypatch, hybrid, "base_normals")
    s = HybridScenario(20, 20, 1.0, EXT, SPEC, effect=0.83, seed=3, reps=2_000)
    hybrid.oc_curve(s, (0.0, SD_EXT, 2 * SD_EXT))
    assert fetches == {"control": 1, "treatment": 1}
