import dataclasses

import numpy as np
import pytest
from scipy.stats import ks_2samp

from embedjive.jive import BlockStack
from embedjive.linalg import singular_values, truncated_svd
from embedjive.rank_select import (
    _null_spectrum_max,
    _wedin_sin_bound,
    estimate_signal_rank,
    select_individual_ranks,
    select_joint_rank,
)
from embedjive.synthetic import make_planted


class TestEstimateSignalRank:
    def test_clean_spectrum(self, rng):
        left = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((50, 3)))[0].T
        m = (left * [3.0, 2.0, 1.0]) @ right
        assert estimate_signal_rank(m, energy=0.99) == 3

    def test_flat_spectrum(self):
        assert estimate_signal_rank(np.eye(4), energy=0.5) == 2

    def test_explicit_passthrough(self, rng):
        assert estimate_signal_rank(rng.standard_normal((5, 9)), k=4) == 4

    def test_against_cumulative_scan_oracle(self, rng):
        m = rng.standard_normal((10, 200))
        sv = np.linalg.svd(m, compute_uv=False)
        energies = np.cumsum(sv**2) / np.sum(sv**2)
        oracle = int(np.argmax(energies >= 0.95)) + 1
        assert estimate_signal_rank(m, energy=0.95) == oracle

    def test_explicit_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            estimate_signal_rank(rng.standard_normal((5, 9)), k=6)

    def test_bad_energy(self, rng):
        with pytest.raises(ValueError, match="energy"):
            estimate_signal_rank(rng.standard_normal((5, 9)), energy=0.0)


def _shared_subspace_blocks(rng, n=300, t=3):
    vt = np.linalg.qr(rng.standard_normal((n, t)))[0].T
    b1 = (rng.standard_normal((8, t)) * [3.0, 2.5, 2.0]) @ vt
    b2 = (rng.standard_normal((10, t)) * [3.0, 2.5, 2.0]) @ vt
    return b1, b2


class TestSelectJointRank:
    def test_identical_row_spaces(self, rng):
        b1, b2 = _shared_subspace_blocks(rng)
        decision = select_joint_rank([b1, b2], (3, 3), seed=0)
        top = np.array(decision.spectrum[:3])
        assert np.abs(top - 2.0).max() <= 1e-8
        assert decision.joint_rank == 3

    def test_independent_subspaces_null(self, rng):
        n = 1000
        q = np.linalg.qr(rng.standard_normal((n, 10)))[0]
        b1 = rng.standard_normal((5, 5)) @ q[:, :5].T
        b2 = rng.standard_normal((5, 5)) @ q[:, 5:].T
        decision = select_joint_rank([b1, b2], (5, 5), seed=1, mode="null")
        assert max(decision.spectrum) < 1.5
        assert decision.joint_rank == 0

    def test_duplicated_noisy_block(self, rng):
        x = rng.standard_normal((12, 400))
        decision = select_joint_rank([x, x.copy()], (5, 5), seed=3)
        assert decision.joint_rank == 5

    def test_spectrum_bounds(self, rng):
        blocks = [rng.standard_normal((6, 120)), rng.standard_normal((9, 120)), rng.standard_normal((7, 120))]
        decision = select_joint_rank(blocks, (3, 4, 2), seed=5)
        spectrum = np.array(decision.spectrum)
        assert (spectrum >= -1e-8).all() and (spectrum <= 3.0 + 1e-8).all()

    def test_monotone_in_tau(self, rng):
        b1, b2 = _shared_subspace_blocks(rng)
        decision = select_joint_rank([b1 + 0.05 * rng.standard_normal(b1.shape), b2], (3, 3), seed=7)
        spectrum = np.array(decision.spectrum)
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
        assert decision.joint_rank == 2

    def test_argument_errors(self, rng):
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((6, 10))
        with pytest.raises(ValueError, match="signal ranks"):
            select_joint_rank([x, y], (6, 6), seed=0)
        with pytest.raises(ValueError, match="resamples"):
            select_joint_rank([x, y], (2, 2), resamples=5, seed=0)
        with pytest.raises(ValueError, match="quantile"):
            select_joint_rank([x, y], (2, 2), quantile=1.0, seed=0)
        with pytest.raises(ValueError, match="mode"):
            select_joint_rank([x, y], (2, 2), mode="bogus", seed=0)

    def test_metadata_flags_rule(self, rng):
        x = rng.standard_normal((6, 150))
        y = rng.standard_normal((6, 150))
        wedin = select_joint_rank([x, y], (3, 3), seed=0, mode="wedin")
        null = select_joint_rank([x, y], (3, 3), seed=0, mode="null")
        assert wedin.method == "wedin-resample" and wedin.tau_wedin is not None
        assert null.method == "mc-null" and null.tau_wedin is None


def _reference_null_max(n, ranks, draws, rng):
    """The explicit sampler: QR-factor an n x t Gaussian per block."""
    out = np.empty(draws)
    for d in range(draws):
        stacked = np.hstack([np.linalg.qr(rng.standard_normal((n, t_i)))[0] for t_i in ranks])
        out[d] = np.linalg.eigvalsh(stacked.T @ stacked).max()
    return out


def _reference_wedin_draws(arr, svd, t_i, draws, rng):
    """The explicit sampler: Haar frames of full height p and n."""
    p, n = arr.shape
    residual_sv = singular_values(arr)[t_i:]
    out = np.empty(draws)
    for d in range(draws):
        u_rand = np.linalg.qr(rng.standard_normal((p, residual_sv.size)))[0]
        v_rand = np.linalg.qr(rng.standard_normal((n, residual_sv.size)))[0]
        right = np.linalg.norm(residual_sv[:, None] * (v_rand.T @ svd.Vt.T), 2)
        left = np.linalg.norm((svd.U.T @ u_rand) * residual_sv[None, :], 2)
        out[d] = min(1.0, max(right, left) / svd.S[-1])
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
        svd = truncated_svd(arr, t_i)
        svd = dataclasses.replace(svd, U=np.zeros_like(svd.U))
        # One draw per call: quantile over a single sample is that sample.
        sample = np.array([
            _wedin_sin_bound(arr, svd, t_i, 1, 0.5, np.random.SeedSequence([44, d]), arr.shape[1]) for d in range(draws)
        ])
        reference = _reference_wedin_draws(arr, svd, t_i, draws, rng)
        assert 0.0 < reference.max() < 1.0
        _assert_same_law(sample, reference)

    @pytest.mark.parametrize("mode", ["null", "wedin"])
    def test_no_qr_has_vocabulary_rows(self, rng, monkeypatch, mode):
        n = 300
        shapes = []
        plain_qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return plain_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        blocks = [rng.standard_normal((8, n)), rng.standard_normal((10, n))]
        select_joint_rank(blocks, (3, 3), resamples=20, seed=0, mode=mode)
        assert shapes
        assert all(shape[0] != n for shape in shapes)

    @pytest.mark.parametrize("mode", ["null", "wedin"])
    def test_signal_ranks_fill_the_vocabulary(self, rng, mode):
        blocks = [rng.standard_normal((6, 10)), rng.standard_normal((7, 10))]
        decision = select_joint_rank(blocks, (5, 5), resamples=20, seed=0, mode=mode)
        assert np.isfinite(decision.tau)
        assert np.isfinite(decision.spectrum).all()


def _reference_left_only(arr, svd, t_i, resamples, quantile, seq):
    """The Wedin bound without its right (n-side) term, on the same draws."""
    residual_sv = singular_values(arr)[t_i:]
    bounds = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        u_rand = np.linalg.qr(rng.standard_normal((arr.shape[0], residual_sv.size)))[0]
        left = np.linalg.norm((svd.U.T @ u_rand) * residual_sv[None, :], 2)
        bounds[d] = min(1.0, left / svd.S[-1])
    return float(np.quantile(bounds, quantile, method="higher"))


def test_wedin_right_term_decides_at_square_blocks(rng):
    # At n = p both terms are corners of equally sized Haar frames, so the
    # right term wins about half the draws and keeping it raises the bound.
    p = n = 50
    t_i = 10
    u = np.linalg.qr(rng.standard_normal((p, t_i)))[0]
    vt = np.linalg.qr(rng.standard_normal((n, t_i)))[0].T
    arr = (u * np.linspace(3.0, 2.0, t_i)) @ vt + 0.05 * rng.standard_normal((p, n))
    svd = truncated_svd(arr, t_i)
    bound = _wedin_sin_bound(arr, svd, t_i, 200, 0.95, np.random.SeedSequence(8), n)
    left_only = _reference_left_only(arr, svd, t_i, 200, 0.95, np.random.SeedSequence(8))
    assert bound > left_only


class TestCompressedStack:
    """Rank policies on a compressed stack against the same policies on the n-wide blocks."""

    # The criterion-4 shape, and one whose compressed width P = 21 is one more
    # than the first block's p = 20: there a Wedin floor drawn with P in place
    # of n lets the right (n-side) term decide some draws and moves the bound.
    @pytest.mark.parametrize("mode", ["null", "wedin"])
    @pytest.mark.parametrize("dims, ranks", [((20, 20), (5, 5)), ((20, 1), (5, 1))])
    def test_joint_rank_decision_matches(self, mode, dims, ranks):
        rng = np.random.default_rng(7_002_000)
        blocks = [rng.standard_normal((p, 2000)) for p in dims]
        blocks[1][:1] += 2.0 * blocks[0][:1]
        plain = select_joint_rank(blocks, ranks, seed=7_007_000, mode=mode)
        compressed = select_joint_rank(BlockStack(blocks), ranks, seed=7_007_000, mode=mode)
        assert np.abs(np.array(compressed.spectrum) - plain.spectrum).max() <= 1e-12
        assert abs(compressed.tau - plain.tau) <= 1e-12
        assert compressed.joint_rank == plain.joint_rank
        if mode == "wedin":
            assert np.abs(np.array(compressed.wedin_sin2) - plain.wedin_sin2).max() <= 1e-12

    def test_signal_ranks_match(self, rng):
        blocks = [rng.standard_normal((10, 200)) * np.linspace(3, 0.1, 10)[:, None], rng.standard_normal((12, 200))]
        stack = BlockStack(blocks)
        for i, block in enumerate(blocks):
            assert estimate_signal_rank(stack.block(i), energy=0.9) == estimate_signal_rank(block, energy=0.9)

    def test_individual_ranks_match(self):
        model = make_planted((20, 30), 150, 3, (2, 2), joint_scales=(4.0, 3.6, 3.2),
                             individual_scales=((3.0, 2.4), (3.0, 2.4)), noise_sigma=0.01, seed=17)
        stack = BlockStack(model.blocks)
        initial_vt = truncated_svd(np.vstack(model.blocks), 3).Vt
        expected = select_individual_ranks(model.blocks, initial_vt, energy=0.95)
        assert select_individual_ranks(stack, stack.row_basis(3), energy=0.95) == expected


class TestSelectIndividualRanks:
    def test_block_inside_joint_space(self, rng):
        vt = np.linalg.qr(rng.standard_normal((80, 3)))[0].T
        inside = rng.standard_normal((5, 3)) @ vt
        other = rng.standard_normal((6, 80))
        assert select_individual_ranks([inside, other], vt)[0] == 0

    def test_explicit_passthrough(self, rng):
        blocks = [rng.standard_normal((8, 40)), rng.standard_normal((10, 40))]
        assert select_individual_ranks(blocks, np.zeros((0, 40)), explicit=[7, 9]) == [7, 9]

    def test_explicit_wrong_length(self, rng):
        blocks = [rng.standard_normal((8, 40)), rng.standard_normal((10, 40))]
        with pytest.raises(ValueError, match="individual ranks"):
            select_individual_ranks(blocks, np.zeros((0, 40)), explicit=[7])

    def test_planted_ranks_recovered(self):
        # Individual scales sized so the sigma=0.01 noise tail stays below the
        # 5% leftover-energy allowance of the default policy.
        model = make_planted((20, 30), 150, 3, (2, 2), joint_scales=(4.0, 3.6, 3.2),
                             individual_scales=((3.0, 2.4), (3.0, 2.4)), noise_sigma=0.01, seed=17)
        assert select_individual_ranks(model.blocks, model.joint_vt, energy=0.95) == [2, 2]
