"""Counter-based random streams with hierarchical substream derivation.

Every Monte Carlo routine in the package takes an explicit
``numpy.random.Generator`` backed by the counter-based Philox engine, so
draws are reproducible and substreams derived from ``(seed, *path)`` are
statistically independent regardless of evaluation order.  Path components
may be integers or short strings (strings are hashed with CRC-32).
"""

from __future__ import annotations

import zlib

import numpy as np
# numpy loads ``numpy.random`` lazily; every substream needs it, so load it
# with the package rather than inside the first timed draw.
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1


def _as_key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (bool, np.bool_)):
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    raise TypeError(f"stream path components must be int or str, got {part!r}")


def substream(seed, *path) -> np.random.Generator:
    """Philox generator keyed deterministically by ``(seed, *path)``."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(_as_key(p) for p in path),
    )
    return np.random.Generator(np.random.Philox(seed=ss))
