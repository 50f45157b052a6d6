"""Deterministic, splittable random streams.

Every randomized procedure in this package draws from a stream named by a
base seed plus a path of labels.  The stream is a Philox counter-based
generator keyed by a 128-bit BLAKE2b digest of the (seed, path) pair, so the
same name yields the same stream on every run and platform, and distinct
names yield statistically independent streams.  Substreams can be derived
from substreams (the path just grows), which is what lets per-play and
per-cell work be reproduced in isolation.

Corpus sampling draws through ``Draws``, one Philox stream that a corpus
loop re-keys to the start of each play's stream.  Its ``integers(n)`` are
computed in Python from the stream's raw 64-bit words, fetched in blocks and
read as 32-bit halves, low half first, with the arithmetic of numpy's
``Generator`` (Lemire's method), so they equal a ``substream`` Generator's
call for call at a fraction of the cost of a numpy call.  Corpora thus
depend only on Philox's raw stream and this package's sampler, not on how a
numpy release implements ``Generator`` methods.
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


# raw 64-bit words a Draws fetches at once, read as 64 32-bit halves: a play
# of 50 moves takes at most about 50 halves, a perturbation under 20; of
# blocks of 8, 16, 32 and 64 words, 32 generated and perturbed the seq
# corpora of the `plays` benchmark fastest
RAW_BLOCK = 32
_MASK32 = 0xFFFFFFFF


class Draws:
    """``integers(n)`` of the stream ``substream(seed, *path)`` starts,
    equal call for call to that Generator's own, read from its raw words
    as 32-bit halves in order: each word's low half, then its high half,
    as Philox's ``has_uint32`` spare serves them."""

    # _next is the block iterator's bound __next__: cheaper per call than next()
    __slots__ = ("_bits", "_next")

    def __init__(self, seed: int, *path: int | str):
        self._bits = substream(seed, *path).bit_generator
        self._next = iter(()).__next__

    def rekey(self, seed: int, *path: int | str) -> None:
        """Move to the start of the named stream (counter 0, nothing
        buffered), which is cheaper than a new ``Draws``: numpy draws OS
        entropy for every new Philox, only for the key to override it."""
        key = derive_key(seed, *path)
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & 0xFFFFFFFFFFFFFFFF, key >> 64)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._next = iter(()).__next__

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n) by Lemire's method: the top 32 bits
        of ``half * n`` for a 32-bit draw ``half``, drawn again while the
        low 32 bits are below ``(2**32 - n) % n`` (tested against ``n``
        first, which bounds that threshold).  ``n == 1`` draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        while True:
            try:
                half = self._next()
            except StopIteration:
                words = self._bits.random_raw(RAW_BLOCK)
                self._next = iter(words.astype("<u8", copy=False).view("<u4").tolist()).__next__
                half = self._next()
            m = half * n
            low = m & _MASK32
            if low >= n or low >= ((1 << 32) - n) % n:
                return m >> 32
