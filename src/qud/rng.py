"""Seeded random streams: one per role, with a fixed chunk-splitting rule.

A seed's plain stream, `stream(seed)`, draws a command's sampled instance.
A chunked run draws chunk k from the spawn key (k,). Every other role draws
from its own two-element spawn key in ROLE_KEYS, which never equals a chunk
key, so no two roles of a seed draw from the same seed sequence.
"""

import numpy as np

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


def _chunks(samples: int, size: int):
    """Yield (index, offset, count) for full chunks of `size`, then the rest."""
    for index, offset in enumerate(range(0, samples, size)):
        yield index, offset, min(size, samples - offset)
