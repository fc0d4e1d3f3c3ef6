"""Deterministic random streams.

Every stochastic routine in this package draws from a counter-based
generator (Philox) keyed by an integer seed plus a small integer path.
Distinct paths give statistically independent streams, and a stream's
output depends only on (seed, path), never on how many other streams
were opened.  All variates are produced from uniform doubles through
explicit transforms, so results are reproducible bit for bit.

normals() is the one normal generator: Gaussian.sample (and so every
Gaussian coefficient slot), the Gamma rejection sampler, the suites'
synthetic data and design matrices, the probes' ball points and the
Metropolis proposals all draw through it.  A stream continued call by
call gives the variates of one call only while every call but the last
asks for an even count, since an odd count leaves a sine unused.
"""

from __future__ import annotations

import math

import numpy as np

# Path-domain tags.  Keeping the first path component distinct per use
# guarantees that, e.g., coefficient draws never collide with probe draws
# made under the same user seed.  Tag 1 is not used.
COEFFS = 0
PROBES = 2
CHAIN = 3
DATA = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path); same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates by Box-Muller in the pair layout: uniform
    pair i gives variates 2i (cosine) and 2i+1 (sine) of the flattened
    C-order output."""
    shape = tuple(shape)
    flat = math.prod(shape)
    pairs = (flat + 1) // 2
    u = gen.random((pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * math.pi * u[:, 1])
    z[1::2] = r * np.sin(2.0 * math.pi * u[:, 1])
    return z[:flat].reshape(shape)
