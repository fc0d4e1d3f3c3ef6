"""Random series priors: enumeration, nested sampling, projections, moments.

The load-bearing contract is per-index determinism: coefficients are drawn
from index-keyed substreams, so enlarging the window never changes the
coefficients already present and projection commutes with sampling: level
M's coefficient matrix is the leading columns of level N's.
"""

import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from cbayes import (
    SeriesPrior,
    admissibility_check,
    estimate_exp_moment,
    marginal_convexity_test,
    sample_coefficients,
)
from cbayes import series_prior, streams
from cbayes.measures1d import Exponential, Gamma, Gaussian, Laplace, Logistic, Uniform
from cbayes.series_prior import (
    AbstractOrthonormal,
    AlgebraicFourier,
    AlgebraicSequence,
    ExplicitSchedule,
    FourierCircle,
    Hierarchical,
    IID,
    _convexity_judge,
    coefficient_chunks,
)

BASIS = FourierCircle()


def laplace_prior(s=1.25, dilation=1.0):
    return SeriesPrior(BASIS, AlgebraicFourier(s), IID(Laplace(0.0, 1.0)), dilation)


def hierarchical_prior(s=1.0):
    return SeriesPrior(BASIS, AlgebraicFourier(s), Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0)))


def draws(d, gen, n):
    """n draws of the law d from the one generator gen, as a group of one."""
    return d.sample((gen,), np.empty((n, 1), order="F"))[:, 0]


# ---------------------------------------------------------------- enumeration


def test_window_indices_contract():
    assert list(BASIS.window_indices(1)) == [0, -1]
    assert list(BASIS.window_indices(2)) == [0, -1, 1, -2]
    assert list(BASIS.window_indices(4)) == [0, -1, 1, -2, 2, -3, 3, -4]
    for n in (1, 2, 3, 8, 17):
        idx = BASIS.window_indices(n)
        assert len(idx) == 2 * n
        assert len(set(idx)) == 2 * n
        # the signed window {-n, ..., n-1}
        assert set(idx) == set(range(-n, n))
        # and the first 2n entries of every larger window
        assert np.array_equal(idx, BASIS.window_indices(n + 1)[: 2 * n])
    with pytest.raises(ValueError):
        BASIS.window_indices(0)


def test_windows_are_nested():
    for n in (1, 2, 5, 9):
        small = set(int(k) for k in BASIS.window_indices(n))
        big = set(int(k) for k in BASIS.window_indices(n + 1))
        assert small < big
        assert big - small == {n, -(n + 1)}


def test_slot_uids_are_distinct():
    uids = [BASIS.slot_uid(int(k)) for k in BASIS.window_indices(40)]
    assert len(set(uids)) == len(uids)
    assert all(u >= 0 for u in uids)


def test_basis_functions_pointwise():
    x = np.array([0.0, 0.25, 1.0 / 3.0])
    assert np.allclose(BASIS.evaluate(0, x), 1.0)
    assert np.allclose(BASIS.evaluate(2, x), math.sqrt(2) * np.cos(4 * math.pi * x))
    assert np.allclose(BASIS.evaluate(-3, x), math.sqrt(2) * np.sin(6 * math.pi * x))


def test_basis_orthonormal_on_window():
    # Gram matrix by the midpoint rule on [0, 1), exact for these trigonometric degrees
    num_grid = 4096
    x = (np.arange(num_grid) + 0.5) / num_grid
    vals = np.stack([BASIS.evaluate(int(k), x) for k in BASIS.window_indices(8)])
    gram = vals @ vals.T / num_grid
    assert np.max(np.abs(gram - np.eye(len(vals)))) < 1e-12


# ------------------------------------------------------------------ schedules


def test_algebraic_fourier_weights():
    w = AlgebraicFourier(1.5).at(BASIS.window_indices(3))
    idx = BASIS.window_indices(3).astype(float)
    assert np.allclose(w, (1.0 + idx**2) ** -1.5)


def test_algebraic_sequence_weights_follow_enumeration():
    w = AlgebraicSequence(2.0).at(BASIS.window_indices(3))
    assert np.allclose(w, np.arange(1, 7, dtype=float) ** -2.0)


def test_explicit_schedule_validation():
    with pytest.raises(ValueError):
        ExplicitSchedule(())
    with pytest.raises(ValueError):
        ExplicitSchedule((1.0, -0.5))
    with pytest.raises(ValueError):
        ExplicitSchedule((0.5, 1.0))  # increasing
    with pytest.raises(ValueError):
        ExplicitSchedule((1.0,)).at(BASIS.window_indices(2))
    w = ExplicitSchedule((4.0, 3.0, 2.0, 1.0)).at(BASIS.window_indices(2))
    assert np.allclose(w, [4.0, 3.0, 2.0, 1.0])


def test_prior_validation():
    with pytest.raises(ValueError):
        SeriesPrior(BASIS, AlgebraicFourier(1.0), IID(Laplace()), dilation=0.0)
    with pytest.raises(ValueError):
        SeriesPrior(BASIS, AlgebraicFourier(1.0), IID(Laplace()), dilation=1.5)
    with pytest.raises(TypeError):
        SeriesPrior(BASIS, AlgebraicFourier(1.0), Laplace())
    with pytest.raises(TypeError):
        IID("not a distribution")


# ------------------------------------------------------------------- sampling


def draw_one(p, N, seed):
    """One field's coefficients: the only row of a one-row draw."""
    return sample_coefficients(p, N, 1, seed)[0]


def test_sample_field_deterministic():
    p = laplace_prior()
    a = draw_one(p, 8, seed=3)
    assert np.array_equal(a, draw_one(p, 8, seed=3))
    assert not np.array_equal(a, draw_one(p, 8, seed=4))


def assert_projection_commutes(p, small, big, seed):
    # level small's window is a prefix of level big's, and its one-row draw
    # is the prefix of level big's row: enlarging the window moves no bit
    wanted = BASIS.window_indices(small)
    assert np.array_equal(BASIS.window_indices(big)[: len(wanted)], wanted)
    direct, enlarged = draw_one(p, small, seed), draw_one(p, big, seed)
    assert direct.shape == wanted.shape
    assert np.array_equal(direct, enlarged[: len(wanted)])


def test_projection_commutes_with_sampling():
    for small, big in [(1, 2), (4, 8), (8, 16), (16, 17)]:
        assert_projection_commutes(laplace_prior(), small, big, seed=11)


def test_projection_commutes_for_hierarchical_law():
    assert_projection_commutes(hierarchical_prior(), 4, 12, seed=5)


def test_sample_coefficients_first_row_matches_single_draw():
    # every sampler reads its stream draw by draw, so a slot's first draw is
    # the same at any row count (Gaussian and non-integer Gamma slots too)
    gauss = SeriesPrior(BASIS, AlgebraicFourier(1.0), IID(Gaussian(0.0, 1.0)))
    gamma = SeriesPrior(BASIS, AlgebraicFourier(1.0), CHUNK_LAWS["gamma2.5_x_gaussian"])
    for p in (laplace_prior(), hierarchical_prior(), gauss, gamma):
        mat = sample_coefficients(p, 6, 5, seed=2)
        assert mat.shape == (5, 12)
        assert np.array_equal(mat[0], draw_one(p, 6, seed=2))
    p = laplace_prior()
    with pytest.raises(ValueError):
        sample_coefficients(p, 6, 0, seed=2)


# ------------------------------------------------------------ chunked draws

CHUNK_LAWS = {
    "laplace": IID(Laplace(0.0, 1.0)),
    "gaussian": IID(Gaussian(0.0, 1.0)),
    "exponential": IID(Exponential(1.0)),
    "logistic": IID(Logistic(0.0, 1.0)),
    "uniform": IID(Uniform(0.0, 1.0)),
    "gamma2": IID(Gamma(2.0, 1.0)),
    "gamma2_x_gaussian": Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0)),
    # non-integer shape: standard_gamma also streams block by block
    "gamma2.5_x_gaussian": Hierarchical(Gamma(2.5, 1.0), Gaussian(0.0, 1.0)),
}


def column_loop(prior, N, num_samples, seed):
    """One-shot oracle: each slot's whole column from freshly opened
    streams, one sample call per law."""
    idx = prior.basis.window_indices(N)
    weights = prior.weights(N)
    out = np.empty((num_samples, len(idx)))
    for pos, k in enumerate(idx):
        uid = prior.basis.slot_uid(int(k))
        gen = streams.substream(seed, streams.COEFFS, uid, 0)
        if isinstance(prior.law, IID):
            xs = draws(prior.law.dist, gen, num_samples)
        else:
            xi = draws(prior.law.mode_law, gen, num_samples)
            xs = draws(prior.law.scale_law, streams.substream(seed, streams.COEFFS, uid, 1), num_samples) * xi
        out[:, pos] = weights[pos] * xs
    return out


@pytest.mark.parametrize("name", sorted(CHUNK_LAWS))
def test_chunked_draws_equal_one_shot_columns(name):
    p = SeriesPrior(BASIS, AlgebraicFourier(1.0), CHUNK_LAWS[name])
    n = 10000  # 4096 rows per block at N=128: three blocks
    assert len(list(coefficient_chunks(p, 128, n, seed=9))) >= 3
    assert np.array_equal(sample_coefficients(p, 128, n, seed=9), column_loop(p, 128, n, 9))


@pytest.mark.parametrize("prior", [laplace_prior(), hierarchical_prior()], ids=["laplace", "hierarchical"])
def test_coefficient_chunks_stack_to_sample_coefficients(prior):
    blocks = list(coefficient_chunks(prior, 64, 9000, seed=4))
    assert [start for start, _ in blocks] == [0, 8192]
    for _, block in blocks:
        assert block.flags.f_contiguous and block.shape[1] == 128
    stacked = np.concatenate([block for _, block in blocks])
    assert np.array_equal(stacked, sample_coefficients(prior, 64, 9000, seed=4))


def test_single_block_is_returned_whole():
    p = laplace_prior()
    (start, block), = coefficient_chunks(p, 8, 20000, seed=1)
    assert start == 0 and block.shape == (20000, 16)
    assert np.array_equal(block, sample_coefficients(p, 8, 20000, seed=1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=hst.sampled_from(sorted(CHUNK_LAWS)),
    N=hst.integers(1, 12),
    rows=hst.integers(1, 8),
    blocks=hst.integers(1, 3),
    short=hst.integers(0, 7),
    seed=hst.integers(0, 2**32 - 1),
)
@example(name="gamma2_x_gaussian", N=3, rows=5, blocks=1, short=0, seed=1)
@example(name="gamma2.5_x_gaussian", N=4, rows=3, blocks=3, short=2, seed=2)
@example(name="gaussian", N=2, rows=3, blocks=3, short=1, seed=3)
def test_chunked_draws_stack_to_one_shot_property(name, N, rows, blocks, short, seed):
    # a patched block size of `rows` rows gives blocks of exactly that many
    # rows, odd counts included, since every sampler continues its stream
    # draw by draw; the last block may be short
    p = SeriesPrior(BASIS, AlgebraicFourier(1.0), CHUNK_LAWS[name])
    n = blocks * rows - min(short, rows - 1)
    with mock.patch.object(series_prior, "_CHUNK_VALUES", rows * 2 * N):
        chunks = list(coefficient_chunks(p, N, n, seed))
        full = sample_coefficients(p, N, n, seed)
    assert [start for start, _ in chunks] == list(range(0, n, rows))
    assert all(block.flags.f_contiguous for _, block in chunks)
    assert full.flags.f_contiguous
    stacked = np.concatenate([block for _, block in chunks])
    assert stacked.tobytes() == full.tobytes() == column_loop(p, N, n, seed).tobytes()


@pytest.mark.parametrize("prior", [laplace_prior(), hierarchical_prior()], ids=["laplace", "hierarchical"])
def test_projection_commutes_across_chunk_boundaries(prior):
    # one block of 10000 rows at N=4, three blocks of up to 4096 at M=128
    small, big = 4, 128
    coarse = sample_coefficients(prior, small, 10000, seed=6)
    fine = sample_coefficients(prior, big, 10000, seed=6)
    assert np.array_equal(coarse, fine[:, : 2 * small])


@pytest.mark.parametrize("name", ["laplace", "gamma2_x_gaussian", "gamma2.5_x_gaussian"])
def test_draining_chunks_holds_one_block_plus_columns(name):
    # a suite process's peak RSS moves with glibc's mmap threshold as soon
    # as two 8 MB blocks are alive together, so the generator must release
    # every view of a block before it allocates the next; the samplers'
    # scratch is a few column-group-sized arrays per filling thread (Laplace
    # one temporary group, integer-shape Gamma(2) an (n, 2) uniform array per
    # slot of the group, a hierarchical law one scale group)
    p = SeriesPrior(BASIS, AlgebraicFourier(1.0), CHUNK_LAWS[name])
    N, blocks = 64, 3
    for _ in coefficient_chunks(p, 2, 10, seed=3):
        pass  # first-call caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        slots = [series_prior._slot_streams(p, 3, k) for k in BASIS.window_indices(N)]
        slot_bytes = tracemalloc.get_traced_memory()[0] - base
        del slots
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        shapes = []
        for _, block in coefficient_chunks(p, N, blocks * (series_prior._CHUNK_VALUES // (2 * N)), seed=3):
            shapes.append(block.shape)
            del block
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows, width = shapes[0]
    assert len(shapes) == blocks and width == 2 * N
    group = 8 * rows * max(1, series_prior._GROUP_VALUES // rows)
    assert peak < rows * width * 8 + 4 * group * series_prior._FILL_THREADS + slot_bytes


# ------------------------------------------------------- threaded block fill

SEQ = AbstractOrthonormal(lambda n, x: np.ones_like(x))
FILL_LAWS = ("laplace", "gamma2_x_gaussian", "gamma2.5_x_gaussian")


def serial_reference(prior, N, num_samples, seed):
    """One thread, slot after slot, one sample call per law and slot: each
    slot's _slot_streams generators drawn for every row into its column,
    times the scale draws, then weighted."""
    idx = prior.basis.window_indices(N)
    weights = prior.weights(N)
    out = np.empty((num_samples, len(idx)), order="F")
    for pos, k in enumerate(idx):
        gens, col = series_prior._slot_streams(prior, seed, k), out[:, pos : pos + 1]
        if isinstance(prior.law, IID):
            prior.law.dist.sample(gens[:1], col)
        else:
            prior.law.mode_law.sample(gens[:1], col)
            col *= draws(prior.law.scale_law, gens[1], num_samples)[:, None]
        col *= weights[pos]
    return out


@pytest.mark.parametrize("slots", [1, 2, 3, 256])
@pytest.mark.parametrize("name", FILL_LAWS)
def test_threaded_fill_equals_serial_reference(name, slots):
    # 700-row blocks: 2000 rows are two full blocks and a short one of 600
    p = SeriesPrior(SEQ, AlgebraicSequence(1.0), CHUNK_LAWS[name])
    want = serial_reference(p, slots, 2000, 11).tobytes()
    with mock.patch.object(series_prior, "_CHUNK_VALUES", 700 * slots):
        chunks = list(coefficient_chunks(p, slots, 2000, seed=11))
        full = sample_coefficients(p, slots, 2000, seed=11)
    assert [(start, len(block)) for start, block in chunks] == [(0, 700), (700, 700), (1400, 600)]
    assert np.concatenate([block for _, block in chunks]).tobytes() == full.tobytes() == want


GROUP_LAWS = ("laplace", "gaussian", "gamma2", "gamma2.5_x_gaussian", "gamma2_x_gaussian")


@pytest.mark.parametrize("rows", [700, 250, 300], ids=["1-column", "4-column", "3-column"])
@pytest.mark.parametrize("slots", [1, 3, 9, 256])
@pytest.mark.parametrize("name", GROUP_LAWS)
def test_column_groups_equal_per_slot_draws(name, slots, rows):
    # 1000-value groups hold one column of a 700-row block and four or
    # three of a 250-row or 300-row one; two full blocks and a short one,
    # and a half's last group may be narrower than the rest
    p = SeriesPrior(SEQ, AlgebraicSequence(1.0), CHUNK_LAWS[name])
    n = 2 * rows + rows // 3
    want = serial_reference(p, slots, n, 11).tobytes()
    with mock.patch.object(series_prior, "_GROUP_VALUES", 1000), \
            mock.patch.object(series_prior, "_CHUNK_VALUES", rows * slots):
        chunks = list(coefficient_chunks(p, slots, n, seed=11))
    assert [len(block) for _, block in chunks] == [rows, rows, rows // 3]
    assert np.concatenate([block for _, block in chunks]).tobytes() == want


class FlakyGenerator:
    """Generator stand-in that counts its calls and raises at each."""

    def __init__(self, calls):
        self.calls = calls

    def random(self, *args, **kwargs):
        self.calls.append(self)
        raise FillError("flaky")

    standard_normal = standard_gamma = random


def test_error_inside_a_group_is_raised_once():
    # the third generator of a four-column group raises: sample stops
    # there, once, before the transform, and leaves the last column undrawn
    calls = []
    good = [streams.substream(0, streams.COEFFS, j, 0) for j in range(4)]
    slab = np.full((6, 4), 7.0, order="F")
    with pytest.raises(FillError):
        Laplace(0.0, 1.0).sample((good[0], good[1], FlakyGenerator(calls), good[3]), out=slab)
    assert len(calls) == 1 and np.all(slab[:, 3] == 7.0)
    assert slab[:, 0].tobytes() == streams.substream(0, streams.COEFFS, 0, 0).random(6).tobytes()

    # in a block fill, slot 6 (the second of the caller's four-column
    # group) raises once, and the generator yields nothing more
    calls = []
    p = SeriesPrior(SEQ, AlgebraicSequence(1.0), CHUNK_LAWS["gamma2_x_gaussian"])
    real = series_prior._slot_streams

    def slot_streams(prior, seed, k):
        return (FlakyGenerator(calls),) * 2 if k == 6 else real(prior, seed, k)

    with mock.patch.object(series_prior, "_GROUP_VALUES", 40), mock.patch.object(series_prior, "_CHUNK_VALUES", 80), \
            mock.patch.object(series_prior, "_slot_streams", slot_streams):
        chunks = coefficient_chunks(p, 8, 30, seed=5)  # 10-row blocks, 4-column groups
        with pytest.raises(FillError):
            next(chunks)
        assert list(chunks) == []
    assert len(calls) == 1


def test_group_sample_refuses_a_mismatched_slab():
    gens = tuple(streams.substream(0, streams.COEFFS, j, 0) for j in range(3))
    for out in (None, np.empty((5, 2), order="F"), np.empty((5, 3)), np.empty(15)):
        with pytest.raises(ValueError):
            Laplace(0.0, 1.0).sample(gens, out=out)
    # a single generator is a group of one: one column at most
    with pytest.raises(ValueError, match="one column per generator"):
        Laplace(0.0, 1.0).sample(gens[:1], out=np.empty((5, 3), order="F"))
    # and is passed as a tuple, even for a one-column out
    with pytest.raises(ValueError, match="tuple"):
        Laplace(0.0, 1.0).sample(gens[0], out=np.empty((5, 1), order="F"))


class FillError(Exception):
    pass


@pytest.mark.parametrize("half", ["other", "caller"])
def test_fill_error_in_either_half_is_raised_after_the_join(half, monkeypatch):
    # the half that does not fail is slowed down, so a caller that raised
    # without waiting for the other thread would leave it running
    p = SeriesPrior(SEQ, AlgebraicSequence(1.0), CHUNK_LAWS["gamma2_x_gaussian"])
    want = serial_reference(p, 4, 30, 5).tobytes()
    mode = type(p.law.mode_law)  # patched on the class: a frozen law takes no attribute
    caller, real, armed = threading.current_thread(), mode.sample, []

    def flaky_sample(self, gens, out):
        if armed:
            if (threading.current_thread() is caller) == (half == "caller"):
                raise FillError(half)
            time.sleep(0.05)
        return real(self, gens, out)

    baseline = threading.active_count()
    monkeypatch.setattr(mode, "sample", flaky_sample)
    monkeypatch.setattr(series_prior, "_CHUNK_VALUES", 10 * 4)
    chunks = coefficient_chunks(p, 4, 30, seed=5)
    assert next(chunks)[0] == 0
    armed.append(True)
    with pytest.raises(FillError, match=half):
        next(chunks)
    assert threading.active_count() == baseline
    assert list(chunks) == []  # no block for rows 10 onwards
    monkeypatch.undo()
    assert sample_coefficients(p, 4, 30, seed=5).tobytes() == want


def test_early_close_leaves_no_fill_thread():
    p = hierarchical_prior()
    want = sample_coefficients(p, 64, 9000, seed=8).tobytes()
    baseline = threading.active_count()
    chunks = coefficient_chunks(p, 64, 9000, seed=8)
    for _, block in chunks:
        break
    assert threading.active_count() == baseline
    chunks.close()
    del block
    assert threading.active_count() == baseline
    assert sample_coefficients(p, 64, 9000, seed=8).tobytes() == want


def test_share_work_places_results_by_item_and_gives_each_thread_one_scratch():
    # the caller's thread and one other each keep the scratch made for them
    # for every item they take, and results come back in item order
    made, used = [], {}

    def scratch():
        made.append([])
        return made[-1]

    def work(item, own):
        used.setdefault(threading.get_ident(), set()).add(id(own))
        own.append(item)
        time.sleep(0.001)  # lets the other thread take items
        return item * item

    baseline = threading.active_count()
    assert series_prior._share_work(work, iter(range(40)), scratch) == [i * i for i in range(40)]
    assert threading.active_count() == baseline
    assert len(made) == 2 and len(used) == 2
    assert all(len(ids) == 1 for ids in used.values())
    assert sorted(made[0] + made[1]) == list(range(40))
    assert series_prior._share_work(work, [], scratch) == []


def test_concurrent_callers_with_fast_thread_switches_get_reference_bits():
    # three callers at once put six filling threads on the machine's cores,
    # and a 1 us switch interval interleaves their Python steps finely
    p = SeriesPrior(SEQ, AlgebraicSequence(1.0), CHUNK_LAWS["gamma2_x_gaussian"])
    seeds = (2, 3, 4)
    want = {seed: serial_reference(p, 9, 3000, seed).tobytes() for seed in seeds}
    got = {}

    def draw(seed):
        got[seed] = sample_coefficients(p, 9, 3000, seed).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(series_prior, "_CHUNK_VALUES", 500 * 9):
            callers = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def test_dilation_scales_samples_linearly():
    full = draw_one(laplace_prior(dilation=1.0), 4, seed=7)
    half = draw_one(laplace_prior(dilation=0.5), 4, seed=7)
    assert np.allclose(half, 0.5 * full)


def test_norm_monotone_under_projection():
    u = draw_one(laplace_prior(), 32, seed=1)
    norms = [np.linalg.norm(u[: len(BASIS.window_indices(m))]) for m in (1, 2, 4, 8, 16, 32)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(np.linalg.norm(u))


def test_coefficient_marginals_match_declared_laws():
    # KS of each sampled column, over its slot's weight, against the unit law
    p = laplace_prior(s=1.0)
    n = 4000
    mat = sample_coefficients(p, 2, n, seed=21)
    law = p.law.dist
    for col, w_k in zip(mat.T, p.weights(2)):
        stat = st.kstest(col / w_k, lambda t: np.asarray(law.cdf(t), dtype=float)).statistic
        assert stat < 1.6276 / math.sqrt(n)


def test_hierarchical_coefficient_variance():
    # zeta*xi with Gamma(2, scale 1) and Gaussian(0,1): Var = E[zeta^2] = 6
    p = hierarchical_prior(s=1.0)
    n = 200000
    mat = sample_coefficients(p, 1, n, seed=4)
    w = p.schedule.at(BASIS.window_indices(1))
    for col, gamma in zip(mat.T, w):
        var = np.var(col)
        se = np.std(col**2) / math.sqrt(n)
        assert abs(var - 6.0 * gamma**2) < 4 * se


CF_LAWS = [
    IID(Laplace(0.0, 1.7)),
    IID(Gaussian(0.0, 0.3)),
    Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0)),
    Hierarchical(Gamma(2.0, 0.5), Gaussian(0.0, 2.0)),
]


@pytest.mark.parametrize("law", CF_LAWS)
def test_log_cf_is_exactly_zero_at_zero(law):
    # a cf off by rounding at 0 enters log BC once per tail coefficient
    assert law._log_cf(0.0) == 0.0
    assert np.all(law._log_cf(np.zeros(5)) == 0.0)
    assert np.all(law._log_cf(np.array([0.3, 1.0, 30.0])) < 0.0)


@pytest.mark.parametrize("law", CF_LAWS)
def test_log_cf_matches_a_numerical_integral(law):
    import scipy.integrate

    if isinstance(law, IID):
        def cf(t):
            return scipy.integrate.quad(lambda x: math.cos(t * x) * float(law.dist.density(x)),
                                        -60.0, 60.0, points=[0.0], epsabs=1e-15, limit=400)[0]
        for t in (0.05, 0.7, 3.0):
            assert math.exp(float(law._log_cf(np.array(t)))) == pytest.approx(cf(t), rel=1e-9, abs=1e-12)
        return
    lam_sigma = law.scale_law.lam * law.mode_law.sigma
    # on both sides of the switch from the series to the erfcx form at x = 0.05
    for x in (0.001, 0.01, 0.03, 0.049, 0.0499999, 0.05, 0.0500001, 0.051, 0.07, 0.2, 1.0, 5.0, 40.0):
        exact = scipy.integrate.quad(lambda z: z * math.exp(-z - 0.5 * (z * x) ** 2), 0.0, math.inf,
                                     epsabs=0.0, epsrel=1e-13, limit=200)[0]
        got = math.exp(float(law._log_cf(np.array([x / lam_sigma, -x / lam_sigma]))[1]))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0), x


@pytest.mark.parametrize("law", [
    IID(Logistic(0.0, 1.0)),
    IID(Laplace(1.0, 1.0)),  # not centred: its cf is complex
    IID(Gaussian(0.5, 1.0)),
    Hierarchical(Gamma(3.0, 1.0), Gaussian(0.0, 1.0)),
    Hierarchical(Gamma(2.0, 1.0), Laplace(0.0, 1.0)),
])
def test_log_cf_refuses_laws_without_a_closed_form(law):
    with pytest.raises(NotImplementedError, match="closed-form characteristic function"):
        law._log_cf(np.zeros(1))


def test_empirical_l2_norm_stabilizes():
    # mean ||u||^2 changes by < 1% when the window doubles past N = 64
    p = laplace_prior()
    n = 3000

    def mean_sq(level):
        mat = sample_coefficients(p, level, n, seed=17)
        return float(np.mean(np.sum(mat * mat, axis=1)))

    m64, m128 = mean_sq(64), mean_sq(128)
    assert abs(m128 - m64) / m64 < 0.01


# ------------------------------------------------------------- admissibility


def test_admissibility_accepts_decaying_schedule():
    rep = admissibility_check(laplace_prior(s=1.25), p=1.0, q=math.inf, K=4096)
    assert rep.passed and rep.heuristic
    assert rep.gamma_cauchy and rep.var_cauchy and rep.conjugate_ok


def test_admissibility_rejects_flat_schedule():
    rep = admissibility_check(laplace_prior(s=0.0), p=1.0, q=math.inf, K=4096)
    assert not rep.passed
    assert not rep.gamma_cauchy


def test_admissibility_requires_conjugate_exponents():
    # gamma_k^2 in l^3 with bounded Var|xi| does not make sum gamma_k^2 Var|xi_k| finite
    rep = admissibility_check(laplace_prior(s=1.25), p=3.0, q=math.inf, K=4096)
    assert rep.gamma_cauchy and rep.var_cauchy
    assert not rep.conjugate_ok
    assert not rep.passed


def test_admissibility_validates_exponents():
    with pytest.raises(ValueError):
        admissibility_check(laplace_prior(), p=0.5, q=2.0, K=64)
    with pytest.raises(ValueError):
        admissibility_check(laplace_prior(), p=1.0, q=math.inf, K=1)


# ------------------------------------------------------------------ exp moment


def test_exp_moment_zero_eps_is_one():
    rep = estimate_exp_moment(laplace_prior(), eps=0.0, N=8, num_samples=2000, seed=0)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0
    assert not rep.flagged


def test_exp_moment_finite_case_stable():
    rep = estimate_exp_moment(laplace_prior(), eps=0.1, N=64, num_samples=20000, seed=0)
    assert math.isfinite(rep.estimate)
    assert not rep.saturated
    assert rep.doubling_drift < 0.02
    assert not rep.flagged


def test_exp_moment_divergent_single_mode_flagged():
    # one unit-rate Laplace mode with eps = 2: E exp(2|xi|) diverges
    basis = AbstractOrthonormal(lambda n, x: np.ones_like(x))
    p = SeriesPrior(basis, ExplicitSchedule((1.0,)), IID(Laplace(0.0, 1.0)))
    rep = estimate_exp_moment(p, eps=2.0, N=1, num_samples=100000, seed=0)
    assert rep.flagged
    assert rep.saturated or rep.doubling_drift >= 0.02


def test_exp_moment_saturation_sets_flags():
    basis = AbstractOrthonormal(lambda n, x: np.ones_like(x))
    p = SeriesPrior(basis, ExplicitSchedule((1.0,)), IID(Gaussian(0.0, 100.0)))
    rep = estimate_exp_moment(p, eps=50.0, N=1, num_samples=5000, seed=1)
    assert rep.saturated and rep.flagged
    assert math.isinf(rep.estimate)


def exp_moment_whole_matrix(prior, eps, N, num_samples, seed, drift_tol=0.02):
    """estimate_exp_moment as it was computed from the whole sample matrix."""
    coeffs = sample_coefficients(prior, N, num_samples, seed)
    norms = np.sqrt(np.sum(coeffs * coeffs, axis=1))
    with np.errstate(over="ignore"):
        w = np.exp(eps * norms)
    if np.any(~np.isfinite(w)):
        return (math.inf, math.inf, math.inf, True, True)
    est = float(np.mean(w))
    half = float(np.mean(w[: num_samples // 2]))
    drift = abs(est - half) / est if est > 0 else math.inf
    stderr = float(np.std(w) / math.sqrt(num_samples))
    return (est, stderr, drift, False, drift >= drift_tol)


@pytest.mark.parametrize(
    "prior, eps, N, n, chunk, seed",
    [
        # 8192 rows per block at N=64: the last of two blocks has one row
        (laplace_prior(), 0.1, 64, 8193, None, 5),
        (hierarchical_prior(), 0.05, 64, 8193, None, 5),
        # blocks of 4, 4 and 1 rows over a 16-slot window; at these seeds
        # the one-row block summed pairwise moves the estimate's last bits
        (laplace_prior(), 0.3, 8, 9, 64, 2),
        (laplace_prior(), 0.1, 8, 9, 64, 5),
        (hierarchical_prior(), 0.2, 8, 9, 64, 5),
        (laplace_prior(), 0.1, 8, 2000, None, 5),
        (SeriesPrior(AbstractOrthonormal(lambda n, x: np.ones_like(x)), ExplicitSchedule((1.0,)),
                     IID(Gaussian(0.0, 100.0))), 50.0, 1, 5000, None, 5),
    ],
    ids=["laplace-8193", "hierarchical-8193", "laplace-4-4-1", "laplace-4-4-1-b", "hierarchical-4-4-1",
         "one-block", "saturated"],
)
def test_exp_moment_streams_to_whole_matrix_bits(prior, eps, N, n, chunk, seed):
    with mock.patch.object(series_prior, "_CHUNK_VALUES", chunk or series_prior._CHUNK_VALUES):
        blocks = [len(b) for _, b in coefficient_chunks(prior, N, n, seed)]
        rep = estimate_exp_moment(prior, eps=eps, N=N, num_samples=n, seed=seed)
        ref = exp_moment_whole_matrix(prior, eps, N, n, seed)
    if n % 8192 == 1 or chunk:
        assert blocks[-1] == 1
    got = (rep.estimate, rep.stderr, rep.doubling_drift, rep.saturated, rep.flagged)
    assert repr(got) == repr(ref)
    assert np.array(got[:3]).tobytes() == np.array(ref[:3]).tobytes()


def test_exp_moment_validates_sample_count():
    with pytest.raises(ValueError):
        estimate_exp_moment(laplace_prior(), eps=0.1, N=4, num_samples=1, seed=0)


# ---------------------------------------------------------- marginal convexity


def test_marginal_convexity_equal_boxes_pass():
    rep = marginal_convexity_test(
        laplace_prior(), [{0: 1.0}], [(-1.0, 1.0)], [(-1.0, 1.0)],
        lam=0.5, N=4, num_samples=20000, seed=0,
    )
    assert rep.passed
    assert abs(rep.margin) <= 3 * rep.combined_stderr + 1e-12


def test_marginal_convexity_laplace_strict_oracle():
    # index-0 marginal is Laplace(0,1) when the weight there is 1
    rep = marginal_convexity_test(
        laplace_prior(), [{0: 1.0}], [(-1.0, 1.0)], [(1.0, 3.0)],
        lam=0.5, N=4, num_samples=100000, seed=0,
    )
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5 * (1 - math.exp(-2)), abs=3 * rep.lhs_stderr)
    e = math.exp(-1.0)
    rhs_oracle = math.sqrt((1 - e) * 0.5 * (e - math.exp(-3)))
    assert rep.rhs == pytest.approx(rhs_oracle, abs=3 * rep.rhs_stderr)


def test_marginal_convexity_two_dimensional_gaussian_oracle():
    # independent Gaussian marginals: box masses factor into CDF products
    p = SeriesPrior(BASIS, AlgebraicFourier(0.0), IID(Gaussian(0.0, 1.0)))
    A = [(-1.0, 0.5), (-0.5, 1.0)]
    B = [(0.0, 2.0), (0.5, 2.5)]
    rep = marginal_convexity_test(
        p, [{0: 1.0}, {1: 1.0}], A, B, lam=0.4, N=2, num_samples=200000, seed=2,
    )
    assert rep.passed

    def box_mass(box):
        g = Gaussian(0.0, 1.0)
        m = 1.0
        for lo, hi in box:
            m *= g.cdf(hi) - g.cdf(lo)
        return m

    lam = 0.4
    C = [(lam * a0 + (1 - lam) * b0, lam * a1 + (1 - lam) * b1)
         for (a0, a1), (b0, b1) in zip(A, B)]
    assert rep.lhs == pytest.approx(box_mass(C), abs=4 * rep.lhs_stderr)
    rhs = box_mass(A) ** lam * box_mass(B) ** (1 - lam)
    assert rep.rhs == pytest.approx(rhs, abs=4 * rep.rhs_stderr)


def test_marginal_convexity_random_linear_functionals():
    # 1-D images of the prior under 5 random functionals stay convex
    gen = np.random.default_rng(31)
    p = laplace_prior()
    for _ in range(5):
        i, j = gen.choice(np.arange(-3, 4), size=2, replace=False)
        w1, w2 = gen.uniform(-2, 2, 2)
        lo = gen.uniform(-1.5, -0.2)
        width_a, width_b = gen.uniform(0.4, 1.5, 2)
        shift = gen.uniform(0.0, 1.0)
        rep = marginal_convexity_test(
            p,
            [{int(i): float(w1), int(j): float(w2)}],
            [(lo, lo + width_a)],
            [(lo + shift, lo + shift + width_b)],
            lam=0.5, N=4, num_samples=30000, seed=int(gen.integers(1 << 30)),
        )
        assert rep.passed


@pytest.mark.parametrize("name", ["gamma2_x_gaussian", "gamma2.5_x_gaussian"])
def test_marginal_convexity_hierarchical_reads_sample_coefficients(name):
    # projection commutes with sampling: the test draws only its
    # functionals' slots, yet its box probabilities are exactly those read
    # off the whole window's coefficient columns times the weights
    p = SeriesPrior(BASIS, AlgebraicFourier(1.0), CHUNK_LAWS[name])
    N, n, seed, lam = 4, 5000, 13, 0.3
    funcs = [{0: 1.0, -1: 0.5}, {2: -2.0}]
    box_a, box_b = [(-1.0, 0.5), (-0.5, 1.5)], [(-0.5, 1.0), (-1.5, 0.5)]
    rep = marginal_convexity_test(p, funcs, box_a, box_b, lam, N, n, seed)

    coeffs = sample_coefficients(p, N, n, seed)
    pos = {int(k): i for i, k in enumerate(BASIS.window_indices(N))}
    vals = [sum(coeffs[:, pos[k]] * w for k, w in f.items()) for f in funcs]  # terms added in dict order

    def prob(box):
        inside = np.ones(n, dtype=bool)
        for v, (lo, hi) in zip(vals, box):
            inside &= (v >= lo) & (v <= hi)
        return float(np.mean(inside))

    A, B = np.array(box_a), np.array(box_b)
    p_a, p_b = prob(A), prob(B)
    assert 0.0 < p_a < 1.0 and 0.0 < p_b < 1.0
    assert rep.lhs == prob(lam * A + (1.0 - lam) * B)
    assert rep.rhs == p_a**lam * p_b ** (1.0 - lam)


def test_marginal_convexity_validation():
    p = laplace_prior()
    with pytest.raises(ValueError):
        marginal_convexity_test(p, [{0: 1.0}], [(1.0, -1.0)], [(0.0, 1.0)],
                                lam=0.5, N=2, num_samples=100, seed=0)
    with pytest.raises(ValueError):
        marginal_convexity_test(p, [{0: 1.0}], [(-1.0, 1.0)], [(0.0, 1.0)],
                                lam=0.0, N=2, num_samples=100, seed=0)
    with pytest.raises(ValueError):
        marginal_convexity_test(p, [{9: 1.0}], [(-1.0, 1.0)], [(0.0, 1.0)],
                                lam=0.5, N=2, num_samples=100, seed=0)
    with pytest.raises(ValueError):
        marginal_convexity_test(p, [{0: 1.0, 1: 1.0, 2: 1.0}], [(-1.0, 1.0)],
                                [(0.0, 1.0)], lam=0.5, N=4, num_samples=100, seed=0)
    for bare in ([0], [(0, 1.0)]):  # functionals are {index: weight} dicts only
        with pytest.raises(TypeError, match="dict"):
            marginal_convexity_test(p, bare, [(-1.0, 1.0)], [(0.0, 1.0)],
                                    lam=0.5, N=2, num_samples=100, seed=0)


def test_convexity_judge_at_zero_probability():
    # P(A) = 0 puts the right side at 0 with no delta-method stderr
    rep = _convexity_judge((0.25, 0.01), (0.0, 0.0), (0.5, 0.02), 0.5)
    assert rep.rhs == 0.0
    assert rep.rhs_stderr == 0.0
    assert rep.margin == 0.25
    assert rep.combined_stderr == 0.01
    assert rep.passed
    assert not _convexity_judge((0.0, 0.001), (0.5, 0.001), (0.5, 0.001), 0.5).passed
