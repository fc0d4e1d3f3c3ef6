"""Counter-based substreams and the pair-layout normal generator."""

import math

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
                 (1, 3, 0), (streams.CHAIN, 3, 0)]:
        other = streams.substream(7, *path).random(16)
        assert not np.array_equal(base, other)


def test_substream_seed_separation():
    a = streams.substream(1, streams.DATA, 0).random(8)
    b = streams.substream(2, streams.DATA, 0).random(8)
    assert not np.array_equal(a, b)


def _ball_points_box_muller(gen, num, dim):
    # the per-row transform the audit's _ball_points wrote out before
    # it called streams.normals
    u = gen.random((num, 2 * ((dim + 1) // 2)))
    r = np.sqrt(-2.0 * np.log1p(-u[:, ::2]))
    z = np.empty((num, 2 * ((dim + 1) // 2)))
    z[:, ::2] = r * np.cos(2.0 * math.pi * u[:, 1::2])
    z[:, 1::2] = r * np.sin(2.0 * math.pi * u[:, 1::2])
    return z[:, :dim]


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_normals_per_row_layout_matches_written_out_box_muller(dim):
    gen = streams.substream(5, streams.PROBES, 11)
    got = streams.normals(gen, (257, 2 * ((dim + 1) // 2)))[:, :dim]
    want = _ball_points_box_muller(streams.substream(5, streams.PROBES, 11), 257, dim)
    assert got.shape == (257, dim)
    assert np.array_equal(got, want)


def test_normals_pair_layout_and_odd_count():
    # pair i gives variates 2i and 2i+1; an odd count drops the last sine
    full = streams.normals(streams.substream(0, streams.DATA, 0), (4, 3))
    odd = streams.normals(streams.substream(0, streams.DATA, 0), (11,))
    assert np.array_equal(full.ravel()[:11], odd)
    u = streams.substream(0, streams.DATA, 0).random((6, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    assert np.array_equal(full.ravel()[0::2], r * np.cos(2.0 * math.pi * u[:, 1]))
    assert np.array_equal(full.ravel()[1::2], r * np.sin(2.0 * math.pi * u[:, 1]))


def test_domain_constants_distinct():
    doms = [streams.COEFFS, streams.PROBES, streams.CHAIN, streams.DATA]
    assert len(set(doms)) == len(doms)
