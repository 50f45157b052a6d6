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

Corpus sampling draws through ``Draws``, which serves ``random()`` and
``integers(n)`` from a re-keyed generator.  It computes them in Python from
the stream's raw 64-bit Philox words, fetched in blocks, with the
arithmetic of numpy's ``Generator`` (a double from the top 53 bits of a
word; a bounded integer by Lemire's method from 32-bit halves, low half
first), so it returns what the Generator would, call for call, at a
fraction of the cost of a numpy call.  Corpora thus depend only on Philox's
raw stream and this package's sampler, not on how a numpy release
implements ``Generator`` methods.  A ``Draws`` takes its block from the
generator ahead of use, so re-key the generator before drawing from it
directly again.
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


# raw words a Draws fetches at once: a play of 50 moves takes at most about
# 25, a perturbation under 10; of 8, 16, 32 and 64, 32 generated and perturbed
# the seq corpora of the `plays` benchmark fastest
RAW_BLOCK = 32
_MASK32 = 0xFFFFFFFF


class Draws:
    """``random()`` and ``integers(n)`` of a generator at the start of its
    stream (fresh from ``substream`` or just re-keyed), equal to the
    generator's own, computed from its raw words.

    ``random()`` takes a whole word and leaves a spare 32-bit half in
    place, as Philox's ``has_uint32`` does; ``integers(n)`` for
    ``1 <= n <= 2**32`` uses the spare half or splits a new word.
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._words = iter(())
        self._half: int | None = None

    def _refill(self) -> int:
        self._words = iter(self._raw(RAW_BLOCK).tolist())
        return next(self._words)

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of the next word."""
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2.0**-53

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
            half = self._half
            if half is None:
                try:
                    word = next(self._words)
                except StopIteration:
                    word = self._refill()
                self._half = word >> 32
                half = word & _MASK32
            else:
                self._half = None
            m = half * n
            low = m & _MASK32
            if low >= n or low >= ((1 << 32) - n) % n:
                return m >> 32
