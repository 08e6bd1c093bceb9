"""Fingerprint of the random streams every Monte Carlo draw comes from.

A change of bit generator or of how a path is keyed changes every Monte
Carlo output at once; these tests name it in one place.
"""

import zlib

import numpy as np

from steinfisher.streams import _as_key, substream


def test_engine_is_sfc64():
    assert isinstance(substream(31, "main", 16, 0).bit_generator,
                      np.random.SFC64)


def test_first_draws_are_pinned():
    # The shard-0 stream of the pinned CLI runs in test_cli.py.
    np.testing.assert_array_equal(
        substream(31, "main", 16, 0).random(4),
        [0.13696630168214807, 0.6150249622927833,
         0.8481009599981494, 0.345056704006269])


def test_same_path_replays_the_same_bytes():
    a = substream(31, "main", 16, 0).random(1000)
    b = substream(31, "main", 16, 0).random(1000)
    assert a.tobytes() == b.tobytes()


def test_distinct_paths_draw_differently():
    main = substream(31, "main", 16, 0).random(4)
    assert not np.array_equal(main, substream(31, "prepass", 16, 0).random(4))
    assert not np.array_equal(main, substream(31, "main", 16, 1).random(4))
    assert not np.array_equal(main, substream(32, "main", 16, 0).random(4))


def test_path_parts_key_as_documented():
    assert _as_key("main") == zlib.crc32(b"main")
    assert _as_key(True) == _as_key(np.bool_(True)) == 1
    assert _as_key(np.int64(5)) == _as_key(5 + 2 ** 32) == 5
    one = substream(31, 1).random(4)
    np.testing.assert_array_equal(substream(31, True).random(4), one)
    five = substream(31, 5).random(4)
    np.testing.assert_array_equal(substream(31, np.int64(5)).random(4),
                                  five)
    np.testing.assert_array_equal(substream(31, 5 + 2 ** 32).random(4), five)
