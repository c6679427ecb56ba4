"""Concurrent runs must not leak per-run choices into each other.

The delivery substrate travels in each run's ``AlgorithmConfig``, never in
process-wide state, so two threads running the KKT algorithms at the same
time — one on the plain substrate, one on Bracha — must each report exactly
the counters of the same run done serially.
"""

import sys
import threading

from repro.api import GraphSpec, get_runner

SPEC = GraphSpec(nodes=48, density="sparse", seed=3)
ALGORITHMS = ("kkt-st", "kkt-mst", "kkt-repair")
SUBSTRATES = ("plain", "bracha")


def _counters(substrate):
    out = {}
    for algorithm in ALGORITHMS:
        result = get_runner(algorithm).run(SPEC, substrate=substrate)
        out[algorithm] = (result.messages, result.bits, result.rounds)
    return out


def test_mixed_substrates_threaded_equal_serial():
    serial = {substrate: _counters(substrate) for substrate in SUBSTRATES}

    threaded = {}
    errors = []
    barrier = threading.Barrier(len(SUBSTRATES), timeout=60)

    def work(substrate):
        try:
            barrier.wait()
            threaded[substrate] = _counters(substrate)
        except Exception as exc:  # surfaced below, on the main thread
            errors.append(exc)

    # A short switch interval makes the two runs interleave finely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in SUBSTRATES]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert threaded == serial
