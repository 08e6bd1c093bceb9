"""Keyed random streams with hierarchical substream derivation.

Every Monte Carlo routine in the package takes an explicit
``numpy.random.Generator`` backed by the SFC64 engine, seeded from a
``numpy.random.SeedSequence`` whose spawn key is the stream's path.  Draws
are reproducible, and substreams derived from distinct ``(seed, *path)``
are statistically independent regardless of evaluation order: the
independence comes from the keys, which ``SeedSequence`` hashes into
unrelated engine states, not from a counter.  Path components may be
integers or short strings (strings are hashed with CRC-32).
"""

from __future__ import annotations

import zlib

import numpy as np
# numpy loads ``numpy.random`` lazily; every substream needs it, so load it
# with the package rather than inside the first timed draw.
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1


def _as_key(part) -> int:
    """One path component as a 32-bit spawn-key word.

    A string is the CRC-32 of its UTF-8 bytes, a bool (numpy's included)
    is 0 or 1, and an integer (numpy's included) is its low 32 bits, so
    ``5``, ``np.int64(5)`` and ``5 + 2**32`` key alike.
    """
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (bool, np.bool_)):
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    raise TypeError(f"stream path components must be int or str, got {part!r}")


def substream(seed, *path) -> np.random.Generator:
    """SFC64 generator keyed deterministically by ``(seed, *path)``.

    The seed's low 64 bits are the ``SeedSequence`` entropy and the path,
    each part through :func:`_as_key`, its spawn key, so two distinct
    paths under one seed give independent streams.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(_as_key(p) for p in path),
    )
    return np.random.Generator(np.random.SFC64(seed=ss))
