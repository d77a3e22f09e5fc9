"""Seeded random streams with a fixed chunk-splitting rule."""

import numpy as np


def stream(seed: int, chunk: int | None = None) -> np.random.Generator:
    """Return the generator for `seed`, or for one chunk of a chunked run.

    Chunk streams are derived from (seed, chunk) alone, so a chunked
    computation draws the same numbers no matter how chunks are scheduled
    across workers. Chunk indices start at 0.
    """
    if chunk is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def _chunks(samples: int, size: int):
    """Yield (index, offset, count) for full chunks of `size`, then the rest."""
    for index, offset in enumerate(range(0, samples, size)):
        yield index, offset, min(size, samples - offset)
