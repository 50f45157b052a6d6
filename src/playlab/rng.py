"""Deterministic, splittable random streams.

Every randomized procedure in this package draws from a stream named by a
base seed plus a path of labels.  The stream is a Philox counter-based
generator keyed by a 128-bit BLAKE2b digest of the (seed, path) pair, so the
same name yields the same stream on every run and platform, and distinct
names yield statistically independent streams.  Substreams can be derived
from substreams (the path just grows), which is what lets per-play and
per-cell work be reproduced in isolation.

A stream is only its key: ``rekey`` moves a generator to the start of
another stream, the state ``substream`` starts in.  A loop over plays makes
one generator and re-keys it before each play, so it draws what a fresh
``substream`` per play would, without building a generator per play (numpy
draws OS entropy for every new Philox, only for the key to override it).
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_key(seed: int, *path: int | str) -> int:
    """128-bit key for the stream named by ``seed`` and ``path`` labels."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    h = hashlib.blake2b(digest_size=16)
    h.update(b"seed:%d" % int(seed))
    for part in path:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"stream labels must be int or str, got {part!r}")
        if isinstance(part, int):
            h.update(b"/i:%d" % part)
        else:
            h.update(b"/s:" + part.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def derive_seed(seed: int, *path: int | str) -> int:
    """64-bit integer seed for the stream named by ``seed`` and ``path``.

    Used when a sub-procedure wants its own seed namespace rather than a
    generator object (e.g. a corpus records the seed it was built from).
    """
    return derive_key(seed, *path) & 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """A fresh generator positioned at the start of the named stream."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def rekey(rng: np.random.Generator, seed: int, *path: int | str) -> None:
    """Move a ``substream`` generator to the start of the named stream:
    counter 0, empty buffer, no spare 32-bit draw."""
    key = derive_key(seed, *path)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & 0xFFFFFFFFFFFFFFFF, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
