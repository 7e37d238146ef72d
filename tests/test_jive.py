import numpy as np
import pytest

import embedjive.jive
from embedjive.jive import BlockStack, JiveConfig, jive_fit, jive_init, variance_explained
from embedjive.linalg import NumericError, principal_angle_sines, truncated_svd
from embedjive.synthetic import make_planted


def init_residual_oracle(blocks, joint_rank, individual_ranks):
    """Two-step SVD initialization residual, coded straight from LAPACK calls."""
    stacked = np.vstack(blocks)
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    joint = (u[:, :joint_rank] * s[:joint_rank]) @ vt[:joint_rank]
    leftover = stacked - joint
    offset = 0
    individual = []
    for block, r_i in zip(blocks, individual_ranks):
        rows = leftover[offset : offset + block.shape[0]]
        ui, si, vti = np.linalg.svd(rows, full_matrices=False)
        individual.append((ui[:, :r_i] * si[:r_i]) @ vti[:r_i])
        offset += block.shape[0]
    return float(np.sum((stacked - joint - np.vstack(individual)) ** 2))


def total_sq(blocks):
    return float(sum(np.sum(b**2) for b in blocks))


def assert_monotone(history, slack=1e-12):
    for a, b in zip(history, history[1:]):
        assert b <= a + slack


class TestInit:
    def test_identical_blocks_pure_joint(self, rng):
        base = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 40))
        state = jive_init([base, base.copy()], JiveConfig(joint_rank=3, individual_ranks=(0, 0)))
        stacked = np.vstack([base, base])
        joint = np.vstack([state.joint_block(0), state.joint_block(1)])
        assert np.abs(joint - stacked).max() <= 1e-10
        assert state.residual_history[0] <= 1e-20

    def test_zero_joint_rank(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        state = jive_init(blocks, JiveConfig(joint_rank=0, individual_ranks=(4, 6)))
        assert state.joint_basis.shape == (0, 30)
        for i, block in enumerate(blocks):
            assert np.abs(state.individual_block(i) - block).max() <= 1e-10

    def test_residual_matches_independent_script(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        state = jive_init(blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2)))
        oracle = init_residual_oracle(blocks, 2, (2, 2))
        assert abs(state.residual_history[0] - oracle) <= 1e-10

    def test_rank_validation(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        with pytest.raises(ValueError, match="joint rank"):
            jive_init(blocks, JiveConfig(joint_rank=5, individual_ranks=(0, 0)))
        with pytest.raises(ValueError, match="individual rank"):
            jive_init(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 7)))


class TestFit:
    def test_rotated_block_pure_joint(self, rng):
        x1 = rng.standard_normal((6, 50))
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        result = jive_fit([x1, q @ x1], JiveConfig(joint_rank=6, individual_ranks=(0, 0)))
        assert result.residual_history[-1] <= 1e-18
        report = variance_explained(result, [x1, q @ x1])
        assert min(report.joint_pct) >= 100.0 * (1 - 1e-10)

    def test_orthogonal_row_spaces_pure_individual(self, rng):
        q = np.linalg.qr(rng.standard_normal((60, 8)))[0]
        x1 = rng.standard_normal((4, 4)) @ q[:, :4].T
        x2 = rng.standard_normal((5, 4)) @ q[:, 4:].T
        result = jive_fit([x1, x2], JiveConfig(joint_rank=0, individual_ranks=(4, 4)))
        assert np.abs(result.individual_block(0) - x1).max() <= 1e-10
        assert np.abs(result.individual_block(1) - x2).max() <= 1e-10

    def test_noisy_planted_joint_subspace(self):
        model = make_planted(
            (20, 30), 200, 3, (2, 2),
            joint_scales=(3.0, 3.0, 3.0), individual_scales=((1.0, 0.8), (1.0, 0.8)),
            noise_sigma=0.01, seed=5,
        )
        result = jive_fit(model.blocks, JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-9))
        assert principal_angle_sines(result.joint_vt, model.joint_vt).max() <= 0.05

    def test_noiseless_exact_recovery(self):
        model = make_planted((8, 12), 80, 2, (2, 1), seed=3)
        result = jive_fit(model.blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 1), epsilon=1e-10, max_iter=800))
        assert result.residual_history[-1] <= 1e-16 * total_sq(model.blocks)
        assert result.converged

    def test_monotone_and_constraint_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            p1, p2 = rng.integers(3, 15, size=2)
            n = int(rng.integers(20, 80))
            blocks = [rng.standard_normal((p1, n)), rng.standard_normal((p2, n))]
            r = int(rng.integers(0, min(p1, p2) + 1))
            ranks = (int(rng.integers(0, p1 + 1)), int(rng.integers(0, p2 + 1)))
            result = jive_fit(blocks, JiveConfig(joint_rank=r, individual_ranks=ranks, epsilon=1e-8, max_iter=40))
            assert_monotone(result.residual_history)
            for i, block in enumerate(blocks):
                cross = result.joint_block(i) @ result.individual_block(i).T
                limit = 1e-8 * np.linalg.norm(block)
                assert np.abs(cross).max() <= limit if cross.size else True

    def test_literal_mode_monotone(self, rng):
        blocks = [rng.standard_normal((6, 40)), rng.standard_normal((9, 40))]
        config = JiveConfig(joint_rank=3, individual_ranks=(2, 3), enforce_orthogonality=False, epsilon=1e-9, max_iter=60)
        result = jive_fit(blocks, config)
        assert_monotone(result.residual_history)

    def test_block_order_symmetry(self):
        model = make_planted((7, 9), 60, 2, (2, 2), noise_sigma=0.02, seed=9)
        config = JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-10)
        forward = jive_fit(model.blocks, config)
        config_swapped = JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-10)
        backward = jive_fit(model.blocks[::-1], config_swapped)
        assert abs(forward.residual_history[-1] - backward.residual_history[-1]) <= 1e-12 * total_sq(model.blocks)
        assert principal_angle_sines(forward.joint_vt, backward.joint_vt).max() <= 1e-8

    def test_scaling_equivariance(self):
        model = make_planted((6, 8), 50, 2, (1, 1), noise_sigma=0.05, seed=2)
        config = JiveConfig(joint_rank=2, individual_ranks=(1, 1), epsilon=1e-9)
        base = jive_fit(model.blocks, config)
        c = 3.7
        scaled = jive_fit([c * b for b in model.blocks], config)
        ratio = scaled.residual_history[-1] / base.residual_history[-1]
        assert abs(ratio - c**2) <= 1e-8 * c**2
        report_base = variance_explained(base, model.blocks)
        report_scaled = variance_explained(scaled, [c * b for b in model.blocks])
        for a, b in zip(report_base.joint_pct, report_scaled.joint_pct):
            assert abs(a - b) <= 1e-10 * 100

    def test_exact_fit_short_circuit(self, rng):
        x = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 30))
        result = jive_fit([x, x.copy()], JiveConfig(joint_rank=2, individual_ranks=(0, 0)))
        assert result.converged
        assert result.iterations == 0

    def test_non_finite_rejected(self, rng):
        bad = rng.standard_normal((3, 20))
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            jive_fit([bad, rng.standard_normal((3, 20))], JiveConfig(joint_rank=1, individual_ranks=(0, 0)))

    def test_config_validation(self, rng):
        blocks = [rng.standard_normal((3, 20)), rng.standard_normal((3, 20))]
        with pytest.raises(ValueError, match="epsilon"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0), epsilon=0.0))
        with pytest.raises(ValueError, match="max_iter"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0), max_iter=0))
        with pytest.raises(ValueError, match="individual ranks"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0, 0)))
        with pytest.raises(ValueError, match="columns"):
            jive_fit([blocks[0], rng.standard_normal((3, 21))], JiveConfig(joint_rank=1, individual_ranks=(0, 0)))

    def test_three_blocks(self):
        model = make_planted((6, 8, 10), 80, 2, (1, 2, 1), joint_scales=(2.0, 1.7),
                             individual_scales=((0.8,), (0.8, 0.7), (0.8,)), noise_sigma=0.01, seed=19)
        result = jive_fit(model.blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 2, 1), epsilon=1e-9))
        assert_monotone(result.residual_history)
        assert principal_angle_sines(result.joint_vt, model.joint_vt).max() <= 0.05
        report = variance_explained(result, model.blocks)
        for i in range(3):
            total = report.joint_pct[i] + report.individual_pct[i] + report.residual_pct[i]
            assert 99.9 <= total <= 100.1

    def test_fit_log_shapes(self, rng):
        blocks = [rng.standard_normal((5, 30)), rng.standard_normal((6, 30))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 1), epsilon=1e-7, max_iter=30))
        assert len(result.diagnostics.relative_changes) == len(result.residual_history) - 1
        assert result.diagnostics.final_residual == result.residual_history[-1]


class TestVarianceExplained:
    def test_pure_joint_is_hundred(self, rng):
        x = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 40))
        result = jive_fit([x, x.copy()], JiveConfig(joint_rank=3, individual_ranks=(0, 0)))
        report = variance_explained(result, [x, x.copy()])
        for i in range(2):
            assert abs(report.joint_pct[i] - 100.0) <= 1e-9
            assert report.individual_pct[i] <= 1e-9
            assert report.residual_pct[i] <= 1e-9

    def test_planted_pythagorean_split(self):
        model = make_planted(
            (20, 30), 200, 3, (2, 2),
            joint_scales=(3.0, 3.0, 3.0), individual_scales=((1.0, 0.8), (1.0, 0.8)),
            noise_sigma=0.01, seed=7,
        )
        result = jive_fit(model.blocks, JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-9))
        report = variance_explained(result, model.blocks)
        for i in range(2):
            total = report.joint_pct[i] + report.individual_pct[i] + report.residual_pct[i]
            assert 99.9 <= total <= 100.1

    def test_matches_planted_split_noiseless(self):
        model = make_planted((10, 14), 90, 2, (2, 2), joint_scales=(1.2, 1.0), seed=13)
        result = jive_fit(model.blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-11, max_iter=900))
        report = variance_explained(result, model.blocks)
        for i in range(2):
            joint, individual, residual = model.expected_pct(i)
            assert abs(report.joint_pct[i] - joint) <= 1e-6
            assert abs(report.individual_pct[i] - individual) <= 1e-6
            assert abs(report.residual_pct[i] - residual) <= 1e-6

    def test_rejects_other_blocks(self, rng):
        blocks = [rng.standard_normal((5, 40)), rng.standard_normal((7, 40))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 2)))
        assert variance_explained(result, BlockStack(blocks)).joint_pct == variance_explained(result, blocks).joint_pct
        for other in ([2.0 * blocks[0], blocks[1]], blocks[::-1], blocks[:1]):
            with pytest.raises(ValueError, match="fitted|blocks"):
                variance_explained(result, other)


def reference_fit(blocks, config):
    """The uncompressed sweep loop: every step on the n-wide blocks.

    Returns the residual history, the lifted factors the compressed fit must
    reproduce, and each block's joint/individual/residual percentages."""
    arrays = [np.asarray(b, dtype=float) for b in blocks]
    stacked = np.vstack(arrays)
    offsets = np.cumsum([0] + [a.shape[0] for a in arrays])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(arrays))]
    exact_floor = 1e-24 * float(np.sum(stacked**2))

    def row_basis(m):
        return truncated_svd(m, config.joint_rank).Vt if config.joint_rank else np.zeros((0, m.shape[1]))

    def individual(leftover, rank):
        if rank == 0:
            return np.zeros((leftover.shape[0], 0)), np.zeros((0, leftover.shape[1]))
        svd = truncated_svd(leftover, rank)
        return svd.U, svd.S[:, None] * svd.Vt

    vt = row_basis(stacked)
    source = stacked
    joint = (source @ vt.T) @ vt
    parts = [individual(arrays[i] - joint[s], r) for i, (s, r) in enumerate(zip(slices, config.individual_ranks))]
    indiv = np.vstack([d @ h for d, h in parts])
    history = [float(np.sum((stacked - joint - indiv) ** 2))]
    converged = history[0] <= exact_floor
    while not converged and len(history) <= config.max_iter:
        deflated = stacked - indiv
        vt = row_basis(deflated)
        source = stacked if config.enforce_orthogonality else deflated
        joint = (source @ vt.T) @ vt
        parts = []
        for i, (s, r) in enumerate(zip(slices, config.individual_ranks)):
            leftover = arrays[i] - joint[s]
            if config.enforce_orthogonality:
                leftover = leftover - (leftover @ vt.T) @ vt
            parts.append(individual(leftover, r))
        indiv = np.vstack([d @ h for d, h in parts])
        history.append(float(np.sum((stacked - joint - indiv) ** 2)))
        rel = (history[-2] - history[-1]) / history[-2]
        converged = rel < config.epsilon or history[-1] <= exact_floor

    svd = truncated_svd(source @ vt.T, config.joint_rank)
    joint_basis = svd.S[:, None] * (svd.Vt @ vt)
    loadings = [svd.U[s] for s in slices]
    pct = []
    for i, x in enumerate(arrays):
        j, a = loadings[i] @ joint_basis, parts[i][0] @ parts[i][1]
        pct.append([100 * float(np.sum(m**2)) / float(np.sum(x**2)) for m in (j, a, x - j - a)])
    return history, joint_basis, loadings, [h for _, h in parts], pct


class TestCompressedFit:
    """The fit on the compressed stack against the uncompressed reference loop."""

    @pytest.mark.parametrize(
        "dims, n, joint_rank, ranks, orthogonal",
        [
            ((8, 12), 90, 2, (2, 1), True),
            ((6, 8, 10), 80, 2, (1, 2, 1), True),
            ((8, 12), 90, 2, (2, 1), False),
            ((30, 40), 50, 3, (3, 4), True),
            ((20, 30), 50, 3, (2, 2), True),
        ],
        ids=["two-blocks", "three-blocks", "literal", "P>n", "P=n"],
    )
    def test_matches_uncompressed_loop(self, dims, n, joint_rank, ranks, orthogonal):
        model = make_planted(dims, n, joint_rank, ranks, noise_sigma=0.05, seed=4)
        config = JiveConfig(joint_rank=joint_rank, individual_ranks=ranks, epsilon=1e-9, max_iter=200,
                            enforce_orthogonality=orthogonal)
        history, joint_basis, loadings, scores, pct = reference_fit(model.blocks, config)
        result = jive_fit(model.blocks, config)
        assert result.iterations == len(history) - 1
        assert np.abs(np.array(result.residual_history) - history).max() <= 1e-10 * history[0]
        assert np.abs(result.joint_basis - joint_basis).max() <= 1e-10
        for i in range(len(dims)):
            assert np.abs(result.loadings[i] - loadings[i]).max() <= 1e-10
            assert np.abs(result.individual_scores[i] - scores[i]).max() <= 1e-10
        report = variance_explained(result, model.blocks)
        got = np.array([report.joint_pct, report.individual_pct, report.residual_pct]).T
        assert np.abs(got - np.array(pct)).max() <= 1e-10

    def test_compressed_width(self, rng):
        for dims, n in (((8, 12), 90), ((30, 40), 50), ((20, 30), 50)):
            blocks = [rng.standard_normal((p, n)) for p in dims]
            stack = BlockStack(blocks)
            assert stack.stacked.shape == (sum(dims), min(sum(dims), n))
            for i, block in enumerate(blocks):
                assert np.abs(stack.lift(stack.block(i)) - block).max() <= 1e-12

    def test_no_vocabulary_wide_svd(self, rng, monkeypatch):
        n = 300
        shapes = []
        plain = embedjive.jive.truncated_svd

        def spy(matrix, k):
            shapes.append(np.shape(matrix))
            return plain(matrix, k)

        monkeypatch.setattr(embedjive.jive, "truncated_svd", spy)
        blocks = [rng.standard_normal((8, n)), rng.standard_normal((10, n))]
        result = jive_fit(blocks, JiveConfig(joint_rank=3, individual_ranks=(2, 3), epsilon=1e-8))
        assert result.iterations >= 1 and shapes
        assert all(shape[1] != n for shape in shapes)

    def test_prebuilt_stack_gives_the_same_fit(self, rng):
        blocks = [rng.standard_normal((5, 40)), rng.standard_normal((7, 40))]
        config = JiveConfig(joint_rank=2, individual_ranks=(1, 2), epsilon=1e-8)
        from_list, from_stack = jive_fit(blocks, config), jive_fit(BlockStack(blocks), config)
        assert from_list.residual_history == from_stack.residual_history
        assert np.array_equal(from_list.joint_basis, from_stack.joint_basis)


class TestRunContract:
    def test_stop_reasons(self, rng):
        x = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 30))
        exact = jive_fit([x, x.copy()], JiveConfig(joint_rank=2, individual_ranks=(0, 0)))
        assert exact.stop_reason == "exact_fit" and exact.converged
        blocks = [rng.standard_normal((6, 40)), rng.standard_normal((7, 40))]
        config = JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-6)
        converged = jive_fit(blocks, config)
        assert converged.stop_reason == "tolerance" and converged.converged
        stopped = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-15, max_iter=2))
        assert stopped.stop_reason == "max_iter" and not stopped.converged and stopped.iterations == 2
        assert jive_init(blocks, config).stop_reason is None

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_orthogonality_deviation_matches_word_space(self, orthogonal):
        model = make_planted((8, 12), 90, 2, (2, 1), noise_sigma=0.05, seed=6)
        config = JiveConfig(joint_rank=2, individual_ranks=(2, 1), epsilon=1e-9, enforce_orthogonality=orthogonal)
        result = jive_fit(model.blocks, config)
        direct = max(
            np.abs(result.joint_block(i) @ result.individual_block(i).T).max() / np.sum(block**2)
            for i, block in enumerate(model.blocks)
        )
        assert abs(result.orthogonality_deviation - direct) <= 1e-12
        if orthogonal:
            assert result.orthogonality_deviation <= 1e-12
        else:
            assert result.orthogonality_deviation > 1e-6

    def test_max_residual_increase(self, rng):
        blocks = [rng.standard_normal((5, 30)), rng.standard_normal((6, 30))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 1), epsilon=1e-7, max_iter=30))
        assert result.max_residual_increase == 0.0
        result.residual_history.append(result.residual_history[-1] + 0.5)
        assert result.max_residual_increase == pytest.approx(0.5 / total_sq(blocks), rel=1e-12)
