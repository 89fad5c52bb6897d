"""The supervisor's one batch queue under contention (no service, fake
batches): every submitted batch runs exactly once."""

import sys
import threading

from repro.service.batcher import PendingBatch
from repro.service.pool import EnginePool

SUBMITTERS = 4
BATCHES_EACH = 200


def test_every_batch_runs_once_under_contention():
    """More engine threads and submitters than cores, with a short
    switch interval: a lost wake-up leaves batches queued past the
    drain, a double take runs one twice."""
    runs = {}
    lost = []
    lock = threading.Lock()

    def handler(batch):
        with lock:
            runs[id(batch)] = runs.get(id(batch), 0) + 1

    chunks = [[PendingBatch(compat_key="group") for _ in range(BATCHES_EACH)]
              for _ in range(SUBMITTERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = EnginePool(
            workers=4, handler=handler, tick_s=0.01,
            on_batch_lost=lambda batch, error: lost.append(error))
        submitters = [
            threading.Thread(target=lambda chunk=chunk: [
                pool.submit(batch) for batch in chunk])
            for chunk in chunks]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in submitters)
        pool.close(timeout_s=60)
    finally:
        sys.setswitchinterval(interval)
    assert lost == []
    assert len(runs) == SUBMITTERS * BATCHES_EACH
    assert set(runs.values()) == {1}
    assert pool.stats()["workers_replaced"] == 0
