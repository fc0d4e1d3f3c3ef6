"""Deterministic random streams.

Every stochastic routine in this package draws from a counter-based
generator (Philox) keyed by an integer seed plus a small integer path.
Distinct paths give statistically independent streams, and a stream's
output depends only on (seed, path), never on how many other streams
were opened.  For a fixed numpy version, results are reproducible bit
for bit.  A stream is read by one thread at a time, not always by the
same one: coefficient_chunks fills a block's column groups on two
threads, each taking the next group when done with its last, and fills
the blocks in order (see series_prior), so every stream is still read
draw by draw and its bits do not depend on scheduling.

normals() is the one normal generator: Gaussian.sample (and so every
Gaussian coefficient slot), the suites' synthetic data and design
matrices and the probes' ball points all draw through it.  It is
numpy's Generator.standard_normal (the ziggurat of Marsaglia and Tsang,
J. Stat. Softw. 2000), which reads the stream variate by variate, so a
stream continued call by call at any counts gives the variates of one
call, and filling a caller's buffer gives the same variates as a fresh
array.  numpy may change what its Generator methods return between
releases (NEP 19), which is why reports record numpy's version and the
golden digests are keyed to it.
"""

from __future__ import annotations

import numpy as np

# Path-domain tags.  Keeping the first path component distinct per use
# guarantees that, e.g., coefficient draws never collide with probe draws
# made under the same user seed.  Tags 1 and 3 are not used.
COEFFS = 0
PROBES = 2
DATA = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path); same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def normals(gen: np.random.Generator, shape, out=None) -> np.ndarray:
    """Standard normal variates of the given shape, in C order, written
    into ``out`` (a contiguous float64 array of that shape) when given."""
    return gen.standard_normal(tuple(shape), out=out)
