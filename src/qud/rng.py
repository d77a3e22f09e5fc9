"""Seeded random streams, one per role, and the one chunk runner.

A seed's plain stream, `stream(seed)`, draws a command's sampled instance.
Chunk k of a chunked run draws from the spawn key (k,) and every other role
from its own two-element key in ROLE_KEYS, so no two roles share a seed
sequence. Every Monte-Carlo command is a per-chunk reduction `_map_chunks` runs.
"""

from concurrent.futures import Future
from queue import SimpleQueue
from threading import Thread

import numpy as np

from .errors import ValidationError

# Most threads a chunked run may use, each holding one chunk: the standard
# library's own default cap on ThreadPoolExecutor workers. Chunks are drawn
# from their own streams, so no result depends on the worker count.
MAX_WORKERS = 32

# spawn keys of the shot roles, by shot kind
ROLE_KEYS = {
    "direct_B": (0, 0),
    "sequential_AB": (1, 0),
}


def stream(seed: int, chunk: int | None = None) -> np.random.Generator:
    """Return the generator for `seed`, or for one chunk of a chunked run.

    Chunk streams are derived from (seed, chunk) alone, so a chunked
    computation draws the same numbers no matter how chunks are scheduled
    across workers. Chunk indices start at 0.
    """
    key = () if chunk is None else (chunk,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def role_stream(seed: int, role: str) -> np.random.Generator:
    """Return the generator of one role of `seed`, from its key in ROLE_KEYS."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=ROLE_KEYS[role]))


def _map_chunks(fn, samples: int, size: int, workers: int):
    """Yield fn(index, offset, count) for the chunks of `samples`, full chunks
    of `size` and then the rest, in chunk order, computed on `workers` threads.

    Thread k runs chunks k, k + `workers`, ...: two freely, then one more per
    result of k's that the consumer takes. So at most 2 * `workers` chunks are
    started and not consumed (with fewer, two workers on 2^18 d=3 volume
    samples took 5-8 % longer), and `workers` chunks hold arrays. One worker
    runs each chunk in the consumer's thread. A consumer may stop: closing the
    generator waits only for the chunks its threads may already run.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValidationError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    offsets = range(0, samples, size)

    def run(index):
        return fn(index, offsets[index], min(size, samples - offsets[index]))

    if workers == 1:
        yield from map(run, range(len(offsets)))
        return

    def work(k, tickets, results):
        try:
            for index in range(k, len(offsets), workers):
                if index >= k + 2 * workers and not tickets.get():
                    return
                results.put((run(index), None))
        except BaseException as exc:  # the consumer's failed.result() raises it again
            failed = Future()
            failed.set_exception(exc)
            results.put((None, failed))

    queues = [(SimpleQueue(), SimpleQueue()) for _ in range(workers)]  # tickets, results
    threads = [Thread(target=work, args=(k, *queues[k])) for k in range(workers)]
    for thread in threads:
        thread.start()
    try:
        for index in range(len(offsets)):
            result, failed = queues[index % workers][1].get()
            if failed is not None:
                failed.result()
            yield result
            queues[index % workers][0].put(True)
    finally:
        for (tickets, _), thread in zip(queues, threads):
            tickets.put(False)
            thread.join()
