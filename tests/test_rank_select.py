import dataclasses
import os
import signal

import numpy as np
import pytest
from scipy.stats import ks_2samp

from embedjive import jobs, rank_select
from embedjive.jive import BlockStack
from embedjive.linalg import truncated_svd
from embedjive.rank_select import (
    _null_spectrum_max,
    _wedin_sin_bound,
    estimate_signal_rank,
    select_individual_ranks,
    select_joint_rank,
)
from embedjive.synthetic import make_planted
from fork_util import assert_no_child_left, counting_forks, deadline


class TestEstimateSignalRank:
    def test_clean_spectrum(self, rng):
        left = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((50, 3)))[0].T
        m = (left * [3.0, 2.0, 1.0]) @ right
        assert estimate_signal_rank(truncated_svd(m, 6).S, energy=0.99) == 3

    def test_flat_spectrum(self):
        assert estimate_signal_rank(np.ones(4), energy=0.5) == 2

    def test_against_cumulative_scan_oracle(self, rng):
        m = rng.standard_normal((10, 200))
        sv = np.linalg.svd(m, compute_uv=False)
        energies = np.cumsum(sv**2) / np.sum(sv**2)
        oracle = int(np.argmax(energies >= 0.95)) + 1
        assert estimate_signal_rank(sv, energy=0.95) == oracle

    def test_bad_energy(self, rng):
        with pytest.raises(ValueError, match="energy"):
            estimate_signal_rank(np.linalg.svd(rng.standard_normal((5, 9)), compute_uv=False), energy=0.0)

    @pytest.mark.parametrize("s", [np.eye(4), np.array([1.0, np.nan]), np.array([1.0, -0.5]), 3.0],
                             ids=["matrix", "nan", "negative", "scalar"])
    def test_reads_a_spectrum_only(self, s):
        # A block passed where its spectrum belongs would read its rows as values.
        with pytest.raises(ValueError, match="1-D spectrum"):
            estimate_signal_rank(s)


def _shared_subspace_blocks(rng, n=300, t=3):
    vt = np.linalg.qr(rng.standard_normal((n, t)))[0].T
    b1 = (rng.standard_normal((8, t)) * [3.0, 2.5, 2.0]) @ vt
    b2 = (rng.standard_normal((10, t)) * [3.0, 2.5, 2.0]) @ vt
    return b1, b2


class TestSelectJointRank:
    def test_identical_row_spaces(self, rng):
        b1, b2 = _shared_subspace_blocks(rng)
        decision = select_joint_rank([b1, b2], (3, 3), seed=0)
        top = np.array(decision["spectrum"][:3])
        assert np.abs(top - 2.0).max() <= 1e-8
        assert decision["joint_rank"] == 3

    def test_independent_subspaces_null(self, rng):
        n = 1000
        q = np.linalg.qr(rng.standard_normal((n, 10)))[0]
        b1 = rng.standard_normal((5, 5)) @ q[:, :5].T
        b2 = rng.standard_normal((5, 5)) @ q[:, 5:].T
        decision = select_joint_rank([b1, b2], (5, 5), seed=1)
        assert max(decision["spectrum"]) < 1.5
        assert decision["joint_rank"] == 0

    def test_duplicated_noisy_block(self, rng):
        x = rng.standard_normal((12, 400))
        decision = select_joint_rank([x, x.copy()], (5, 5), seed=3)
        assert decision["joint_rank"] == 5

    def test_spectrum_bounds(self, rng):
        blocks = [rng.standard_normal((6, 120)), rng.standard_normal((9, 120)), rng.standard_normal((7, 120))]
        decision = select_joint_rank(blocks, (3, 4, 2), seed=5)
        spectrum = np.array(decision["spectrum"])
        assert (spectrum >= -1e-8).all() and (spectrum <= 3.0 + 1e-8).all()

    def test_monotone_in_tau(self, rng):
        b1, b2 = _shared_subspace_blocks(rng)
        decision = select_joint_rank([b1 + 0.05 * rng.standard_normal(b1.shape), b2], (3, 3), seed=7)
        spectrum = np.array(decision["spectrum"])
        counts = [int((spectrum > tau).sum()) for tau in (0.5, 1.0, 1.5, 1.9, 2.0)]
        assert counts == sorted(counts, reverse=True)

    def test_deterministic(self, rng):
        x = rng.standard_normal((8, 200))
        y = rng.standard_normal((8, 200))
        first = select_joint_rank([x, y], (4, 4), seed=11)
        second = select_joint_rank([x, y], (4, 4), seed=11)
        assert first == second

    def test_planted_joint_detected(self):
        model = make_planted((15, 18), 400, 2, (2, 2), joint_scales=(2.0, 1.8),
                             individual_scales=((1.0, 0.9), (1.0, 0.9)), noise_sigma=0.01, seed=21)
        decision = select_joint_rank(model.blocks, (4, 4), seed=2)
        assert decision["joint_rank"] == 2

    def test_argument_errors(self, rng):
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((6, 10))
        with pytest.raises(ValueError, match="signal ranks"):
            select_joint_rank([x, y], (6, 6), seed=0)
        with pytest.raises(ValueError, match="resamples"):
            select_joint_rank([x, y], (2, 2), resamples=5, seed=0)
        with pytest.raises(ValueError, match="quantile"):
            select_joint_rank([x, y], (2, 2), quantile=1.0, seed=0)
        with pytest.raises(ValueError, match="signal rank 7 out of range for block 0"):
            select_joint_rank([x, y], (7, 2), seed=0)

    def test_signal_rank_above_numerical_rank(self, rng):
        # b2 has exact rank 3: a 4th "signal" direction would be a null vector.
        b1, b2 = _shared_subspace_blocks(rng)
        blocks = [b1 + 0.05 * rng.standard_normal(b1.shape), b2]
        with pytest.raises(ValueError, match=r"signal rank 4 exceeds the numerical rank 3 of block 1 \(block1\)"):
            select_joint_rank(blocks, (5, 4), seed=7)
        assert select_joint_rank(blocks, (5, 3), seed=7)["joint_rank"] == 3


def _reference_null_max(n, ranks, draws, rng):
    """The explicit sampler: QR-factor an n x t Gaussian per block."""
    out = np.empty(draws)
    for d in range(draws):
        stacked = np.hstack([np.linalg.qr(rng.standard_normal((n, t_i)))[0] for t_i in ranks])
        out[d] = np.linalg.eigvalsh(stacked.T @ stacked).max()
    return out


def _reference_wedin_draws(arr, svd, t_i, draws, rng):
    """The explicit sampler: Haar frames of full height p and n.  ``svd``
    holds at least ``t_i`` singular triples; the first ``t_i`` are the signal."""
    p, n = arr.shape
    residual_sv = np.linalg.svd(arr, compute_uv=False)[t_i:]
    out = np.empty(draws)
    for d in range(draws):
        u_rand = np.linalg.qr(rng.standard_normal((p, residual_sv.size)))[0]
        v_rand = np.linalg.qr(rng.standard_normal((n, residual_sv.size)))[0]
        right = np.linalg.norm(residual_sv[:, None] * (v_rand.T @ svd.Vt[:t_i].T), 2)
        left = np.linalg.norm((svd.U[:, :t_i].T @ u_rand) * residual_sv[None, :], 2)
        out[d] = min(1.0, max(right, left) / svd.S[t_i - 1])
    return out


def _assert_same_law(sample, reference):
    assert ks_2samp(sample, reference).pvalue > 0.01
    stderr = np.sqrt(sample.var(ddof=1) / sample.size + reference.var(ddof=1) / reference.size)
    assert abs(sample.mean() - reference.mean()) <= 3 * stderr


class TestSamplersMatchExplicitDraws:
    """The n-free samplers against the explicit n-row draws they replace."""

    @pytest.mark.parametrize("ranks", [(4, 6), (3, 5, 4)])
    def test_null_spectrum_max(self, ranks):
        n, draws = 300, 500
        sample = _null_spectrum_max(n, list(ranks), draws, np.random.SeedSequence(41))
        _assert_same_law(sample, _reference_null_max(n, ranks, draws, np.random.default_rng(42)))

    def test_wedin_right_term(self, rng):
        # With U-hat zeroed the left (p-side) term vanishes, which otherwise
        # dominates for p << n, and the bound is the Haar-corner term alone.
        u = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        vt = np.linalg.qr(rng.standard_normal((300, 3)))[0].T
        arr = (u * [3.0, 2.5, 2.0]) @ vt + 0.05 * rng.standard_normal((12, 300))
        t_i, draws = 3, 500
        svd = truncated_svd(arr, min(arr.shape))
        svd = dataclasses.replace(svd, U=np.zeros_like(svd.U))
        # One draw per call: quantile over a single sample is that sample.
        sample = np.array([
            _wedin_sin_bound(svd, t_i, 1, 0.5, np.random.SeedSequence([44, d]), arr.shape[1]) for d in range(draws)
        ])
        reference = _reference_wedin_draws(arr, svd, t_i, draws, rng)
        assert 0.0 < reference.max() < 1.0
        _assert_same_law(sample, reference)

    def test_no_qr_has_vocabulary_rows(self, rng, monkeypatch):
        n = 300
        shapes = []
        plain_qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return plain_qr(a, *args, **kwargs)

        # The stack's one compression QR is n rows tall; the samplers' are not.
        # The draws run inline: the spy sees nothing a forked child does.
        stack = BlockStack.of([rng.standard_normal((8, n)), rng.standard_normal((10, n))])
        monkeypatch.setattr(rank_select, "_FORKED_WORK", np.inf)
        monkeypatch.setattr(np.linalg, "qr", spy)
        select_joint_rank(stack, (3, 3), resamples=20, seed=0)
        assert shapes
        assert all(shape[0] != n for shape in shapes)

    def test_signal_ranks_fill_the_vocabulary(self, rng):
        blocks = [rng.standard_normal((6, 10)), rng.standard_normal((7, 10))]
        decision = select_joint_rank(blocks, (5, 5), resamples=20, seed=0)
        assert np.isfinite(decision["tau"])
        assert np.isfinite(decision["spectrum"]).all()


def _reference_left_only(arr, svd, t_i, resamples, quantile, seq):
    """The Wedin bound without its right (n-side) term, on the same draws."""
    residual_sv = np.linalg.svd(arr, compute_uv=False)[t_i:]
    bounds = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        u_rand = np.linalg.qr(rng.standard_normal((arr.shape[0], residual_sv.size)))[0]
        left = np.linalg.norm((svd.U[:, :t_i].T @ u_rand) * residual_sv[None, :], 2)
        bounds[d] = min(1.0, left / svd.S[t_i - 1])
    return float(np.quantile(bounds, quantile, method="higher"))


def test_wedin_right_term_decides_at_square_blocks(rng):
    # At n = p both terms are corners of equally sized Haar frames, so the
    # right term wins about half the draws and keeping it raises the bound.
    p = n = 50
    t_i = 10
    u = np.linalg.qr(rng.standard_normal((p, t_i)))[0]
    vt = np.linalg.qr(rng.standard_normal((n, t_i)))[0].T
    arr = (u * np.linspace(3.0, 2.0, t_i)) @ vt + 0.05 * rng.standard_normal((p, n))
    svd = truncated_svd(arr, min(arr.shape))
    bound = _wedin_sin_bound(svd, t_i, 200, 0.95, np.random.SeedSequence(8), n)
    left_only = _reference_left_only(arr, svd, t_i, 200, 0.95, np.random.SeedSequence(8))
    assert bound > left_only


def _word_wide_decision(blocks, ranks, seed, resamples=100, quantile=0.95):
    """``select_joint_rank``'s spectrum, threshold and Wedin sines computed
    from the module's helpers on the n-wide blocks, on the same spawned seeds."""
    n, k = blocks[0].shape[1], len(blocks)
    svds = [truncated_svd(b, min(b.shape)) for b in blocks]
    stacked = np.hstack([svd.Vt[:t].T for svd, t in zip(svds, ranks)])
    spectrum = np.clip(np.linalg.eigvalsh(stacked.T @ stacked)[::-1], 0.0, None)
    null_seq, *block_seqs = np.random.SeedSequence(seed).spawn(1 + k)
    tau = float(np.quantile(_null_spectrum_max(n, list(ranks), resamples, null_seq), quantile, method="higher"))
    wedin_sin2 = [
        _wedin_sin_bound(svd, t, resamples, quantile, seq, n) ** 2
        for svd, t, seq in zip(svds, ranks, block_seqs)
    ]
    tau = min(max(tau, k - sum(wedin_sin2)), k * (1.0 - 1e-12))
    return spectrum, tau, min(int((spectrum > tau).sum()), min(ranks)), wedin_sin2


class TestCompressedStack:
    """Rank policies on a compressed stack against the same computations on the n-wide blocks."""

    # The criterion-4 shape, and one whose compressed width P = 21 is one more
    # than the first block's p = 20: there a Wedin floor drawn with P in place
    # of n lets the right (n-side) term decide some draws and moves the bound.
    @pytest.mark.parametrize("dims, ranks", [((20, 20), (5, 5)), ((20, 1), (5, 1))])
    def test_joint_rank_decision_matches(self, dims, ranks):
        rng = np.random.default_rng(7_002_000)
        blocks = [rng.standard_normal((p, 2000)) for p in dims]
        blocks[1][:1] += 2.0 * blocks[0][:1]
        spectrum, tau, joint_rank, wedin_sin2 = _word_wide_decision(blocks, ranks, 7_007_000)
        compressed = select_joint_rank(BlockStack.of(blocks), ranks, seed=7_007_000)
        assert np.abs(np.array(compressed["spectrum"]) - spectrum).max() <= 1e-12
        assert abs(compressed["tau"] - tau) <= 1e-12
        assert compressed["joint_rank"] == joint_rank
        assert np.abs(np.array(compressed["wedin_sin2"]) - wedin_sin2).max() <= 1e-12

    def test_signal_ranks_match(self, rng):
        blocks = [rng.standard_normal((10, 200)) * np.linspace(3, 0.1, 10)[:, None], rng.standard_normal((12, 200))]
        stack = BlockStack.of(blocks)
        for svd, block in zip(stack.svds, blocks):
            sv = np.linalg.svd(block, compute_uv=False)
            assert estimate_signal_rank(svd.S, energy=0.9) == estimate_signal_rank(sv, energy=0.9)


def reference_bartlett(rng, rows, cols, dof):
    """One draw's Bartlett factor: normals above the diagonal, the square
    roots of chi-squares with ``dof - j`` degrees of freedom on it."""
    r = np.triu(rng.standard_normal((rows, cols)), 1)
    j = np.arange(rows)
    r[j, j] = np.sqrt(rng.chisquare(dof - j))
    return r


def reference_null_spectrum_max(n, ranks, resamples, seq):
    """The per-draw null sampler: one Bartlett factor, one QR per column
    block and one ``eigvalsh`` call per draw."""
    total = sum(ranks)
    splits = np.cumsum(ranks)[:-1]
    out = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        r = reference_bartlett(rng, total, total, n)
        stacked = np.hstack([np.linalg.qr(cols)[0] for cols in np.hsplit(r, splits)])
        out[d] = float(np.linalg.eigvalsh(stacked.T @ stacked).max())
    return out


def reference_wedin_sin_bound(svd, t_i, resamples, quantile, seq, n):
    """The per-draw Wedin sampler: two QRs and two 2-norms per draw."""
    p = svd.U.shape[0]
    signal_u = svd.U[:, :t_i]
    residual_sv = svd.S[t_i:]
    smallest_signal = float(svd.S[t_i - 1])
    if residual_sv.size == 0:
        return 0.0
    if float(residual_sv.max()) <= smallest_signal * 1e-12:
        return 0.0
    m = residual_sv.size
    bounds = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        u_rand = np.linalg.qr(rng.standard_normal((p, m)))[0]
        g1 = rng.standard_normal((t_i, m))
        r2 = reference_bartlett(rng, min(n - t_i, m), m, n - t_i)
        corner = np.linalg.qr(np.vstack([g1, r2]))[0][:t_i]
        right = np.linalg.norm(corner * residual_sv[None, :], 2)
        left = np.linalg.norm((signal_u.T @ u_rand) * residual_sv[None, :], 2)
        bounds[d] = min(1.0, max(right, left) / smallest_signal)
    return float(np.quantile(bounds, quantile, method="higher"))


def reference_decision(stack, ranks, resamples, quantile, seed):
    """``select_joint_rank``'s decision with the per-draw samplers."""
    k, n, svds = len(stack), stack.n, stack.svds
    stacked = np.hstack([svd.Vt[:t_i].T for svd, t_i in zip(svds, ranks)])
    spectrum = np.clip(np.linalg.eigvalsh(stacked.T @ stacked)[::-1], 0.0, None)
    null_seq, *block_seqs = np.random.SeedSequence(seed).spawn(1 + k)
    null_max = reference_null_spectrum_max(n, list(ranks), resamples, null_seq)
    tau_null = float(np.quantile(null_max, quantile, method="higher"))
    wedin_sin2 = [reference_wedin_sin_bound(svd, t_i, resamples, quantile, seq, n) ** 2
                  for svd, t_i, seq in zip(svds, ranks, block_seqs)]
    tau_wedin = max(0.0, k - float(sum(wedin_sin2)))
    tau = min(max(tau_null, tau_wedin), k * (1.0 - 1e-12))
    joint_rank = min(int((spectrum > tau).sum()), min(ranks))
    return {"joint_rank": joint_rank, "signal_ranks": list(ranks), "tau": float(tau), "tau_null": tau_null,
            "tau_wedin": tau_wedin, "wedin_sin2": wedin_sin2, "spectrum": [float(v) for v in spectrum],
            "resamples": resamples, "quantile": quantile, "seed": seed,
            "individual_ranks": select_individual_ranks(ranks, joint_rank)}


def _low_rank_block(rng, p, rank, n):
    return rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))


# (label, blocks from an rng, signal ranks, resamples).  "full" has a block
# whose signal rank is its rank, "floor" one whose residual lies under the
# 1e-12 floor: both take the Wedin sampler's early 0.0.
STACKED_CASES = [
    ("k2-t10", lambda rng: [rng.standard_normal((12, 300)), rng.standard_normal((12, 300))], (5, 5), 10),
    ("k3-t10", lambda rng: [rng.standard_normal((p, 300)) for p in (6, 8, 9)], (3, 4, 3), 100),
    ("k2-t40", lambda rng: [rng.standard_normal((40, 400)), rng.standard_normal((60, 400))], (20, 20), 100),
    ("k3-t105", lambda rng: [rng.standard_normal((p, 400)) for p in (50, 100, 75)], (30, 40, 35), 37),
    ("full", lambda rng: [rng.standard_normal((5, 200)), rng.standard_normal((12, 200))], (5, 4), 37),
    ("floor", lambda rng: [rng.standard_normal((8, 200)), _low_rank_block(rng, 10, 3, 200)], (4, 3), 10),
]

# How the chunks run: as the machine and its BLAS settings decide, inline, or
# forked past the work threshold, with OpenBLAS pinned to one thread, on two
# CPUs or on more CPUs than chunks.
WORKER_MODES = {"auto": None, "inline": (1, np.inf), "two": (2, 0), "many": (64, 0)}


def draws_on(monkeypatch, cpus, threshold):
    """Make the draws see ``cpus`` CPUs, a forking threshold of
    ``threshold`` and OpenBLAS pinned to one thread; returns the list to
    which the pid of every child they fork is appended."""
    monkeypatch.setattr(jobs, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(rank_select, "_FORKED_WORK", threshold)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return counting_forks(monkeypatch)


class TestStackedDrawsMatchLoops:
    """The chunked, stacked samplers against the per-draw loops they replace: equal, not close."""

    @pytest.mark.parametrize("mode", list(WORKER_MODES))
    @pytest.mark.parametrize("label, make, ranks, resamples", STACKED_CASES, ids=[c[0] for c in STACKED_CASES])
    def test_decision_equals_reference(self, monkeypatch, mode, label, make, ranks, resamples):
        if WORKER_MODES[mode] is not None:
            draws_on(monkeypatch, *WORKER_MODES[mode])
        stack = BlockStack.of(make(np.random.default_rng(len(label) * 1000 + resamples)))
        decision = select_joint_rank(stack, ranks, resamples=resamples, quantile=0.9, seed=resamples + 3)
        assert decision == reference_decision(stack, ranks, resamples, 0.9, resamples + 3)
        if label in ("full", "floor"):
            assert decision["wedin_sin2"][0 if label == "full" else 1] == 0.0

    def test_null_sampler_equals_reference(self):
        sample = _null_spectrum_max(300, [4, 6, 5], 23, np.random.SeedSequence(9))
        assert np.array_equal(sample, reference_null_spectrum_max(300, [4, 6, 5], 23, np.random.SeedSequence(9)))


def _select_small(rng, resamples=20):
    blocks = [rng.standard_normal((12, 300)), rng.standard_normal((10, 300))]
    return select_joint_rank(blocks, (5, 5), resamples=resamples, seed=4)


class TestForkedDraws:
    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "inline"])
    def test_no_child_left(self, rng, monkeypatch, forked):
        children = draws_on(monkeypatch, 2, 0 if forked else np.inf)
        _select_small(rng)
        assert len(children) == (1 if forked else 0)
        assert_no_child_left()

    def test_child_error_reaches_the_caller(self, rng, monkeypatch):
        children = draws_on(monkeypatch, 2, 0)
        parent = os.getpid()
        plain = rank_select._bartlett

        def non_finite_in_child(normals, chisquares):
            plain(normals, chisquares)
            if os.getpid() != parent:
                normals[:] = np.nan

        monkeypatch.setattr(rank_select, "_bartlett", non_finite_in_child)
        with pytest.raises(np.linalg.LinAlgError):
            _select_small(rng)
        assert len(children) == 1
        assert_no_child_left()

    def test_killed_child_is_an_error_naming_its_draws(self, rng, monkeypatch):
        children = draws_on(monkeypatch, 2, 0)
        parent = os.getpid()
        plain = rank_select._bartlett

        def killed_in_child(normals, chisquares):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            plain(normals, chisquares)

        monkeypatch.setattr(rank_select, "_bartlett", killed_in_child)
        with deadline(60), pytest.raises(ChildProcessError) as raised:
            _select_small(rng)
        assert len(children) == 1
        assert_no_child_left()
        # The error names the child's first chunk: block 0's two Wedin chunks
        # weigh the most, and are dealt one to each process.
        assert str(raised.value) == ("the worker process for block 0 (block0) Wedin draws 11-20 was killed by"
                                     " signal 9 before returning its results")

    @pytest.mark.parametrize("settings, forks", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
        ({"MKL_NUM_THREADS": "1"}, False),
    ], ids=["unset", "openblas", "omp", "openblas-2", "omp-2", "mkl"])
    def test_draws_fork_only_when_openblas_runs_one_thread(self, rng, monkeypatch, settings, forks):
        children = draws_on(monkeypatch, 2, 0)
        for var in jobs._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        for var, value in settings.items():
            monkeypatch.setenv(var, value)
        _select_small(rng)
        assert len(children) == (1 if forks else 0)
        assert_no_child_left()


class TestSelectIndividualRanks:
    def test_signal_rank_minus_joint_rank(self):
        assert select_individual_ranks([30, 40, 35], 20) == [10, 20, 15]
        assert select_individual_ranks((7, 9), 0) == [7, 9]

    def test_block_inside_joint_space(self):
        # A block whose signal space is the joint space has no individual part,
        # and a pinned joint rank above a signal rank does not go negative.
        assert select_individual_ranks([3, 5], 3) == [0, 2]
        assert select_individual_ranks([3, 5], 4) == [0, 1]

    def test_decision_carries_the_rule(self, rng):
        # Three shared directions; signal ranks above 3 leave the rest individual.
        b1, b2 = _shared_subspace_blocks(rng)
        # b2 gets a fourth direction of its own, outside the shared three.
        own = rng.standard_normal((1, b2.shape[1])) / np.sqrt(b2.shape[1])
        b2 = b2 + 1.5 * rng.standard_normal((b2.shape[0], 1)) @ own
        decision = select_joint_rank([b1 + 0.05 * rng.standard_normal(b1.shape), b2], (5, 4), seed=7)
        assert (decision["joint_rank"], decision["individual_ranks"]) == (3, [2, 1])
        assert set(decision) == {"joint_rank", "signal_ranks", "tau", "tau_null", "tau_wedin", "wedin_sin2",
                                 "spectrum", "resamples", "quantile", "seed", "individual_ranks"}

    def test_planted_ranks_recovered(self):
        # Individual scales sized so the sigma=0.01 noise tail stays below the
        # 5% energy allowance of the default signal-rank policy.
        model = make_planted((20, 30), 150, 3, (2, 2), joint_scales=(4.0, 3.6, 3.2),
                             individual_scales=((3.0, 2.4), (3.0, 2.4)), noise_sigma=0.01, seed=17)
        stack = BlockStack.of(model.blocks)
        signal_ranks = [estimate_signal_rank(svd.S, energy=0.95) for svd in stack.svds]
        decision = select_joint_rank(stack, signal_ranks, seed=2)
        assert (decision["joint_rank"], decision["individual_ranks"]) == (3, [2, 2])
