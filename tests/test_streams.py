"""Counter-based substreams and the normal generator."""

import numpy as np
import pytest

from cbayes import streams


def test_substream_deterministic():
    a = streams.substream(7, streams.COEFFS, 3, 0).random(16)
    b = streams.substream(7, streams.COEFFS, 3, 0).random(16)
    assert np.array_equal(a, b)


def test_substream_paths_are_independent():
    base = streams.substream(7, streams.COEFFS, 3, 0).random(16)
    for path in [(streams.COEFFS, 3, 1), (streams.COEFFS, 4, 0),
                 (1, 3, 0), (3, 3, 0)]:
        other = streams.substream(7, *path).random(16)
        assert not np.array_equal(base, other)


def test_substream_seed_separation():
    a = streams.substream(1, streams.DATA, 0).random(8)
    b = streams.substream(2, streams.DATA, 0).random(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_normals_are_standard_normal_bit_for_bit(dim):
    got = streams.normals(streams.substream(5, streams.PROBES, 11), (257, dim))
    want = streams.substream(5, streams.PROBES, 11).standard_normal((257, dim))
    assert got.shape == (257, dim) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_normals_continue_at_odd_counts():
    # a stream continued at any counts, odd ones included, gives the
    # variates of one call; a shaped call is the flat one in C order
    one = streams.normals(streams.substream(0, streams.DATA, 0), (4101,))
    gen = streams.substream(0, streams.DATA, 0)
    parts = [streams.normals(gen, (n,)) for n in (1, 3, 4097)]
    assert np.concatenate(parts).tobytes() == one.tobytes()
    shaped = streams.normals(streams.substream(0, streams.DATA, 0), (4, 3))
    assert shaped.tobytes() == one[:12].tobytes()


def test_domain_constants_distinct():
    doms = [streams.COEFFS, streams.PROBES, streams.DATA]
    assert len(set(doms)) == len(doms)
