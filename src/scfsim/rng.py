"""Deterministic RNG stream derivation.

A root seed plus a tuple of purpose tags (strings or ints) maps to an
independent numpy Generator. Tags are hashed with blake2s so the mapping is
stable across processes and Python versions, which is what makes experiment
output byte-identical regardless of how work is scheduled.
"""

import hashlib

import numpy as np

from .numerics import _is_integer


def _tag_to_int(tag):
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValueError("stream tags must be non-negative")
        return int(tag)
    digest = hashlib.blake2s(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed, *tags):
    """Generator for (seed, *tags); distinct tag tuples give independent streams.

    ``seed`` is an integer >= 0 (a numpy integer too); anything else raises
    ``ValueError``, where int() would floor 2.7 to 2 and read True as 1.
    """
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    entropy = [int(seed)] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
