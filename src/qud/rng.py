"""Seeded random streams, one per role, and the one chunk runner.

A seed's plain stream, `stream(seed)`, draws a command's sampled instance.
Chunk k of a chunked run draws from the spawn key (k,) and every other role
from its own two-element key in ROLE_KEYS, so no two roles share a seed
sequence. Every Monte-Carlo command is a per-chunk reduction `_map_chunks` runs.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor

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
    if chunk is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def role_stream(seed: int, role: str) -> np.random.Generator:
    """Return the generator of one role of `seed`, from its key in ROLE_KEYS."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=ROLE_KEYS[role]))


def _map_chunks(fn, samples: int, size: int, workers: int):
    """Yield fn(index, offset, count) for the chunks of `samples`, full chunks
    of `size` and then the rest, in chunk order, computed on `workers` threads.

    At most 2 * `workers` chunks are submitted and not yet consumed: one
    running and one queued per thread, so a thread that finishes a chunk
    need not wait for the consumer to hand it the next (with none queued,
    two workers on 2^18 d=3 volume samples took 5-8 % longer). Only a
    running chunk holds its arrays, so a run holds `workers` chunks' arrays
    and at most 2 * `workers` results however many chunks it has. With one
    worker each chunk runs in the consumer's thread. A consumer may stop:
    closing the generator waits only for the chunks already submitted.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValidationError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    chunks = ((index, offset, min(size, samples - offset))
              for index, offset in enumerate(range(0, samples, size)))
    if workers == 1:
        for chunk in chunks:
            yield fn(*chunk)
        return
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk in chunks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *chunk))
        while pending:
            yield pending.popleft().result()
