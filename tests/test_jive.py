import numpy as np
import pytest

import embedjive.jive
from embedjive.jive import MOMENTUM, PCT_KEYS, BlockStack, JiveConfig, jive_fit, variance_explained
from embedjive.linalg import NumericError, principal_angle_sines, truncated_svd
from embedjive.synthetic import make_planted


def init_residual_oracle(blocks, joint_rank, individual_ranks):
    """Sweep 0's residual (two exact SVD steps), coded straight from LAPACK calls."""
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
    """Sweep 0: exact truncated SVDs from a zero individual part."""

    def test_identical_blocks_pure_joint(self, rng):
        base = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 40))
        state = jive_fit([base, base.copy()], JiveConfig(joint_rank=3, individual_ranks=(0, 0)))
        stacked = np.vstack([base, base])
        joint = np.vstack([state.joint_block(0), state.joint_block(1)])
        assert np.abs(joint - stacked).max() <= 1e-10
        assert state.residual_history[0] <= 1e-20

    def test_zero_joint_rank(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        state = jive_fit(blocks, JiveConfig(joint_rank=0, individual_ranks=(4, 6)))
        assert state.joint_basis.shape == (0, 30)
        for i, block in enumerate(blocks):
            assert np.abs(state.individual_block(i) - block).max() <= 1e-10

    def test_residual_matches_independent_script(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        state = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2)))
        oracle = init_residual_oracle(blocks, 2, (2, 2))
        assert abs(state.residual_history[0] - oracle) <= 1e-10

    def test_rank_validation(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((6, 30))]
        with pytest.raises(ValueError, match="joint rank"):
            jive_fit(blocks, JiveConfig(joint_rank=5, individual_ranks=(0, 0)))
        with pytest.raises(ValueError, match="individual rank"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 7)))


class TestFit:
    def test_rotated_block_pure_joint(self, rng):
        x1 = rng.standard_normal((6, 50))
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        result = jive_fit([x1, q @ x1], JiveConfig(joint_rank=6, individual_ranks=(0, 0)))
        assert result.residual_history[-1] <= 1e-18
        report = variance_explained(result)
        assert min(b["joint_pct"] for b in report["blocks"]) >= 100.0 * (1 - 1e-10)

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
            assert result.orthogonality_deviation <= 1e-12
            for i, block in enumerate(blocks):
                cross = result.joint_block(i) @ result.individual_block(i).T
                limit = 1e-8 * np.linalg.norm(block)
                assert np.abs(cross).max() <= limit if cross.size else True

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
        report_base = variance_explained(base)
        report_scaled = variance_explained(scaled)
        for a, b in zip(report_base["blocks"], report_scaled["blocks"], strict=True):
            assert abs(a["joint_pct"] - b["joint_pct"]) <= 1e-10 * 100

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
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0), epsilon=epsilon))
        with pytest.raises(ValueError, match="max_iter"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0), max_iter=0))
        with pytest.raises(ValueError, match="individual ranks"):
            jive_fit(blocks, JiveConfig(joint_rank=1, individual_ranks=(0, 0, 0)))
        with pytest.raises(ValueError, match="columns"):
            jive_fit([blocks[0], rng.standard_normal((3, 21))], JiveConfig(joint_rank=1, individual_ranks=(0, 0)))

    def test_rejected_extrapolations_keep_residuals_monotone(self):
        # Pure noise on which a momentum step raises the residual once.
        rng = np.random.default_rng(1095)
        blocks = [rng.standard_normal((6, 40)), rng.standard_normal((7, 40))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-8))
        assert result.converged
        assert result.extrapolations_rejected >= 1
        assert result.max_residual_increase == 0.0
        assert len(result.step_history) == len(result.residual_history)
        assert result.step_history[:2] == ["plain", "plain"] and "extrapolated" in result.step_history

    def test_three_blocks(self):
        model = make_planted((6, 8, 10), 80, 2, (1, 2, 1), joint_scales=(2.0, 1.7),
                             individual_scales=((0.8,), (0.8, 0.7), (0.8,)), noise_sigma=0.01, seed=19)
        result = jive_fit(model.blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 2, 1), epsilon=1e-9))
        assert_monotone(result.residual_history)
        assert principal_angle_sines(result.joint_vt, model.joint_vt).max() <= 0.05
        report = variance_explained(result)
        for i in range(3):
            total = sum(report["blocks"][i][key] for key in PCT_KEYS)
            assert 99.9 <= total <= 100.1


class TestVarianceExplained:
    def test_pure_joint_is_hundred(self, rng):
        x = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 40))
        result = jive_fit([x, x.copy()], JiveConfig(joint_rank=3, individual_ranks=(0, 0)))
        report = variance_explained(result)
        for i in range(2):
            assert abs(report["blocks"][i]["joint_pct"] - 100.0) <= 1e-9
            assert report["blocks"][i]["individual_pct"] <= 1e-9
            assert report["blocks"][i]["residual_pct"] <= 1e-9

    def test_planted_pythagorean_split(self):
        model = make_planted(
            (20, 30), 200, 3, (2, 2),
            joint_scales=(3.0, 3.0, 3.0), individual_scales=((1.0, 0.8), (1.0, 0.8)),
            noise_sigma=0.01, seed=7,
        )
        result = jive_fit(model.blocks, JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-9))
        report = variance_explained(result)
        for i in range(2):
            total = sum(report["blocks"][i][key] for key in PCT_KEYS)
            assert 99.9 <= total <= 100.1

    def test_matches_planted_split_noiseless(self):
        model = make_planted((10, 14), 90, 2, (2, 2), joint_scales=(1.2, 1.0), seed=13)
        result = jive_fit(model.blocks, JiveConfig(joint_rank=2, individual_ranks=(2, 2), epsilon=1e-11, max_iter=900))
        report = variance_explained(result)
        for i in range(2):
            joint, individual, residual = model.expected_pct(i)
            assert abs(report["blocks"][i]["joint_pct"] - joint) <= 1e-6
            assert abs(report["blocks"][i]["individual_pct"] - individual) <= 1e-6
            assert abs(report["blocks"][i]["residual_pct"] - residual) <= 1e-6


def overlapping_blocks(dims, n, joint_rank, ranks, overlap, seed, energy=0.95):
    """Blocks with one joint row space and individual row spaces at cosine
    ``overlap`` to one another.  Joint singular values run from 1.0 to 0.9,
    individual ones from 0.85 to 0.75, and each block's noise energy is set so
    that its planted components hold about ``energy`` of the block."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, joint_rank + max(ranks) + sum(ranks))))[0].T
    joint, common = basis[:joint_rank], basis[joint_rank : joint_rank + max(ranks)]
    starts = np.cumsum([joint_rank + max(ranks), *ranks])
    blocks = []
    for p, r, start in zip(dims, ranks, starts):
        own = basis[start : start + r]
        individual = np.linalg.qr((overlap * common[:r] + np.sqrt(1 - overlap**2) * own).T)[0].T
        sv = np.concatenate([np.linspace(1.0, 0.9, joint_rank), np.linspace(0.85, 0.75, r)])
        sq, t = sv**2, sv.size
        noise_sq = ((1 - energy) * sq.sum() - sq[-1] / 2) / (energy - (t - 0.5) / p)
        noise = rng.standard_normal((p, n))
        loadings = np.linalg.qr(rng.standard_normal((p, t)))[0]
        signal = loadings @ (sv[:, None] * np.vstack([joint, individual]))
        blocks.append(signal + np.sqrt(noise_sq) / np.linalg.norm(noise) * noise)
    return blocks


def reference_fit(blocks, config, warm=True, accelerate=True):
    """The uncompressed sweep loop: every step on the n-wide blocks.

    With ``warm`` each sweep's SVDs start from the previous sweep's rows, one
    subspace-iteration step as in the package; without it every sweep takes
    exact LAPACK SVDs.  With ``accelerate`` every sweep after the first
    plain one starts from the momentum step
    ``indiv + MOMENTUM * (indiv - previous)`` over the last two accepted
    individual parts, safeguarded as in the package: a momentum sweep that
    raises the residual is dropped and replaced by a plain sweep, and a plain
    sweep that does not lower the residual ends the fit.  The fit stops once
    two accepted sweeps in a row each lower the residual by less than epsilon
    relative.  Returns the residual history, the lifted factors the
    compressed fit must reproduce, each block's joint/individual/residual
    percentages and the number of sweeps run.  The individual scores are
    ``S Vt`` of the truncated SVD of each block's final individual part, so
    their row signs follow :func:`truncated_svd`'s rule."""
    arrays = [np.asarray(b, dtype=float) for b in blocks]
    stacked = np.vstack(arrays)
    offsets = np.cumsum([0] + [a.shape[0] for a in arrays])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(arrays))]
    exact_floor = 1e-24 * float(np.sum(stacked**2))

    def fit(m, rank, rows=None):
        """``(U, S Vt, Vt)`` of the rank-``rank`` fit of ``m``."""
        if rank == 0:
            return np.zeros((m.shape[0], 0)), np.zeros((0, m.shape[1])), np.zeros((0, m.shape[1]))
        if rows is None or not warm:
            t = truncated_svd(m, rank)
            return t.U, t.S[:, None] * t.Vt, t.Vt
        q = np.linalg.qr(m @ rows.T)[0]
        t = truncated_svd(q.T @ m, rank)
        return q @ t.U, t.S[:, None] * t.Vt, t.Vt

    def sweep(state, vt, parts):
        vt = fit(stacked - state, config.joint_rank, vt)[2]
        joint = (stacked @ vt.T) @ vt
        new_parts = []
        for i, (s, r) in enumerate(zip(slices, config.individual_ranks)):
            leftover = arrays[i] - joint[s]
            leftover = leftover - (leftover @ vt.T) @ vt
            new_parts.append(fit(leftover, r, None if parts is None else parts[i][2]))
        new_indiv = np.vstack([d @ h for d, h, _ in new_parts])
        return float(np.sum((stacked - joint - new_indiv) ** 2)), vt, new_parts, new_indiv

    residual, vt, parts, indiv = sweep(np.zeros_like(stacked), None, None)
    history, previous, sweeps, small = [residual], None, 1, 0
    while history[-1] > exact_floor and small < 2 and len(history) <= config.max_iter:
        extrapolated = accelerate and previous is not None
        trial = sweep(indiv + MOMENTUM * (indiv - previous) if extrapolated else indiv, vt, parts)
        sweeps += 1
        if extrapolated and trial[0] > history[-1]:
            extrapolated, trial = False, sweep(indiv, vt, parts)
            sweeps += 1
        if not extrapolated and trial[0] >= history[-1]:
            break
        previous = indiv
        residual, vt, parts, indiv = trial
        small = small + 1 if (history[-1] - residual) / history[-1] < config.epsilon else 0
        history.append(residual)

    svd = truncated_svd(stacked @ vt.T, config.joint_rank)
    joint_basis = svd.S[:, None] * (svd.Vt @ vt)
    loadings = [svd.U[s] for s in slices]
    pct = []
    for i, x in enumerate(arrays):
        j, a = loadings[i] @ joint_basis, parts[i][0] @ parts[i][1]
        pct.append([100 * float(np.sum(m**2)) / float(np.sum(x**2)) for m in (j, a, x - j - a)])
    scores = [fit(d @ h, r)[1] for (d, h, _), r in zip(parts, config.individual_ranks)]
    return history, joint_basis, loadings, scores, pct, sweeps


def evaluated_sweeps(result):
    """At most the sweeps a fit evaluated: sweep 0, the accepted ones, the
    thrown-away extrapolations and a last plain sweep that may have failed to
    lower the residual."""
    return 2 + result.iterations + result.extrapolations_rejected


class TestCompressedFit:
    """The fit on the compressed stack against the uncompressed reference loop."""

    @pytest.mark.parametrize(
        "dims, n, joint_rank, ranks",
        [
            ((8, 12), 90, 2, (2, 1)),
            ((6, 8, 10), 80, 2, (1, 2, 1)),
            ((30, 40), 50, 3, (3, 4)),
            ((20, 30), 50, 3, (2, 2)),
        ],
        ids=["two-blocks", "three-blocks", "P>n", "P=n"],
    )
    def test_matches_uncompressed_loop(self, dims, n, joint_rank, ranks):
        # The two loops are equal in exact arithmetic and must agree over a
        # full run, over a run cut by max_iter and over one stopped early on
        # tolerance.
        model = make_planted(dims, n, joint_rank, ranks, noise_sigma=0.05, seed=4)
        runs = ((1e-9, 200, None), (1e-9, 30, "max_iter"), (1e-4, 200, "tolerance"))
        for epsilon, max_iter, stop_reason in runs:
            config = JiveConfig(joint_rank=joint_rank, individual_ranks=ranks, epsilon=epsilon, max_iter=max_iter)
            history, joint_basis, loadings, scores, pct, sweeps = reference_fit(model.blocks, config)
            result = jive_fit(model.blocks, config)
            assert stop_reason in (None, result.stop_reason)
            assert result.iterations == len(history) - 1
            assert "extrapolated" in result.step_history
            # The reference's count includes a last plain sweep that failed to
            # lower the residual.
            assert 0 <= sweeps - len(history) - result.extrapolations_rejected <= 1
            assert np.abs(np.array(result.residual_history) - history).max() <= 1e-10 * history[0]
            assert np.abs(result.joint_basis - joint_basis).max() <= 1e-10
            for i in range(len(dims)):
                assert np.abs(result.loadings[i] - loadings[i]).max() <= 1e-10
                assert np.abs(result.individual_scores[i] - scores[i]).max() <= 1e-10
            report = variance_explained(result)
            got = np.array([[b[key] for key in PCT_KEYS] for b in report["blocks"]])
            assert np.abs(got - np.array(pct)).max() <= 1e-10

    @pytest.mark.parametrize(
        "dims, n, joint_rank, ranks",
        [((8, 12), 90, 2, (2, 1)), ((30, 40), 50, 3, (3, 4))],
        ids=["two-blocks", "P>n"],
    )
    def test_word_order_changes_the_fit_only_by_rounding(self, dims, n, joint_rank, ranks):
        # The same words in another order give a stack that differs from the
        # first only in rounding.  A momentum step is a fixed combination of
        # two fits and does not amplify it: the joint bases agree to 1.8e-15.
        # Anderson mixing over a sliding window left them 3e-5 (two-blocks)
        # and 5e-4 (P>n) apart at epsilon 1e-9.
        model = make_planted(dims, n, joint_rank, ranks, noise_sigma=0.05, seed=4)
        order = np.random.default_rng(0).permutation(n)
        for epsilon in (1e-6, 1e-9):
            config = JiveConfig(joint_rank=joint_rank, individual_ranks=ranks, epsilon=epsilon, max_iter=200)
            result = jive_fit(model.blocks, config)
            moved = jive_fit([block[:, order] for block in model.blocks], config)
            assert moved.step_history == result.step_history
            assert moved.extrapolations_rejected == result.extrapolations_rejected
            assert np.abs(moved.joint_basis - result.joint_basis[:, order]).max() <= 1e-10

    def test_acceleration_saves_sweeps_without_losing_accuracy(self):
        # Individual row spaces at cosine 0.9 make the joint/individual split
        # slow to settle, as in the benchmark's decompose workload.
        blocks = overlapping_blocks((20, 40), 200, 10, (6, 10), overlap=0.9, seed=0)
        config = JiveConfig(joint_rank=10, individual_ranks=(6, 10), epsilon=1e-6)
        _, plain_basis, *_, plain_sweeps = reference_fit(blocks, config, accelerate=False)
        result = jive_fit(blocks, config)
        tight = jive_fit(blocks, JiveConfig(joint_rank=10, individual_ranks=(6, 10), epsilon=1e-13, max_iter=5000))
        plain_vt = np.linalg.qr(plain_basis.T)[0].T
        assert result.converged and tight.converged
        assert evaluated_sweeps(result) <= 0.6 * plain_sweeps
        plain_sine = principal_angle_sines(plain_vt, tight.joint_vt).max()
        assert principal_angle_sines(result.joint_vt, tight.joint_vt).max() <= 1.5 * plain_sine

    def test_acceleration_on_pure_noise_costs_few_sweeps(self):
        # Without planted structure the extrapolations barely help, and when
        # max_iter caps the accepted sweeps every thrown-away extrapolation is
        # one sweep more than the plain loop takes: at most 479 against 488
        # here.
        evaluated = plain = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            blocks = [rng.standard_normal((15, 100)), rng.standard_normal((25, 100))]
            config = JiveConfig(joint_rank=2, individual_ranks=(5, 8), epsilon=1e-7, max_iter=60)
            result = jive_fit(blocks, config)
            assert result.max_residual_increase == 0.0
            evaluated += evaluated_sweeps(result)
            plain += reference_fit(blocks, config, accelerate=False)[-1]
        assert evaluated <= 1.25 * plain

    def test_acceleration_without_overlap_keeps_pace_and_accuracy(self):
        # Individual row spaces at cosine 0 leave the plain alternation fast,
        # so momentum has little to gain: at most 56 sweeps against the plain
        # loop's 52 here, and each fit lands nearer the optimum (joint sines
        # 7.7e-5 to 9.5e-5 against 2.9e-4 to 4.4e-4).
        config = JiveConfig(joint_rank=10, individual_ranks=(6, 10), epsilon=1e-6)
        tight_config = JiveConfig(joint_rank=10, individual_ranks=(6, 10), epsilon=1e-13, max_iter=5000)
        evaluated = plain = 0
        for seed in range(4):
            blocks = overlapping_blocks((20, 40), 200, 10, (6, 10), overlap=0.0, seed=seed)
            _, plain_basis, *_, plain_sweeps = reference_fit(blocks, config, accelerate=False)
            result, tight = jive_fit(blocks, config), jive_fit(blocks, tight_config)
            assert result.converged and tight.converged
            evaluated += evaluated_sweeps(result)
            plain += plain_sweeps
            plain_vt = np.linalg.qr(plain_basis.T)[0].T
            plain_sine = principal_angle_sines(plain_vt, tight.joint_vt).max()
            assert principal_angle_sines(result.joint_vt, tight.joint_vt).max() <= plain_sine
        assert evaluated <= 1.25 * plain

    def test_warm_and_cold_sweeps_reach_the_same_fit(self):
        # Warm-started sweeps take inexact steps; run to a tight tolerance they
        # must land on the fit that exact per-sweep SVDs reach.
        model = make_planted((20, 30), 200, 3, (2, 2), joint_scales=(3.0, 2.5, 2.0),
                             individual_scales=((1.5, 1.2), (1.5, 1.2)), noise_sigma=0.05, seed=8)
        config = JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-12, max_iter=2000)
        result = jive_fit(model.blocks, config)
        history, joint_basis, *_ = reference_fit(model.blocks, config, warm=False, accelerate=False)
        assert result.converged and result.max_residual_increase == 0.0
        assert abs(result.residual_history[-1] - history[-1]) <= 1e-10 * history[-1]
        cold_vt = np.linalg.qr(joint_basis.T)[0].T
        assert principal_angle_sines(result.joint_vt, cold_vt).max() <= 1e-4

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

    def test_svds_only_at_sweep_0_and_extract(self, monkeypatch):
        # Later sweeps keep their Ritz pairs, so however many sweeps a fit
        # takes, it calls the SVD once per nonzero-rank part at sweep 0 and
        # once more when the factors are put in SVD form.
        calls = []
        plain = embedjive.jive.truncated_svd

        def counter(matrix, k):
            calls.append(k)
            return plain(matrix, k)

        monkeypatch.setattr(embedjive.jive, "truncated_svd", counter)
        for dims, n, joint_rank, ranks in (((20, 30), 200, 3, (3, 4)), ((6, 8, 10), 80, 2, (1, 0, 2))):
            model = make_planted(dims, n, joint_rank, ranks, noise_sigma=0.05, seed=4)
            calls.clear()
            result = jive_fit(model.blocks, JiveConfig(joint_rank=joint_rank, individual_ranks=ranks, epsilon=1e-9))
            assert result.iterations >= 20
            assert sorted(calls) == sorted(2 * [r for r in (joint_rank, *ranks) if r])

    def test_block_svds_taken_once_on_first_use(self, rng):
        stack = BlockStack([rng.standard_normal((5, 40)), rng.standard_normal((7, 40))])
        # A fit with given ranks never reads them, so it does not pay for them.
        jive_fit(stack, JiveConfig(joint_rank=2, individual_ranks=(1, 2)))
        assert "svds" not in vars(stack)
        svds = stack.svds
        assert stack.svds is svds
        for i, svd in enumerate(svds):
            assert svd.S.size == min(stack.block(i).shape)
            assert np.abs(svd.compose() - stack.block(i)).max() <= 1e-12

    def test_prebuilt_stack_gives_the_same_fit(self, rng):
        blocks = [rng.standard_normal((5, 40)), rng.standard_normal((7, 40))]
        config = JiveConfig(joint_rank=2, individual_ranks=(1, 2), epsilon=1e-8)
        from_list, from_stack = jive_fit(blocks, config), jive_fit(BlockStack(blocks), config)
        assert from_list.residual_history == from_stack.residual_history
        assert np.array_equal(from_list.joint_basis, from_stack.joint_basis)


class TestSignRule:
    @pytest.mark.parametrize(
        "dims, n, joint_rank, ranks",
        [((20, 30), 200, 3, (3, 4)), ((8, 12), 90, 2, (2, 0)), ((6, 8, 10), 80, 2, (1, 2, 1)), ((6, 8, 10), 80, 2, (1, 0, 2))],
        ids=["two-blocks", "two-blocks-rank-0", "three-blocks", "three-blocks-rank-0"],
    )
    def test_largest_loading_entry_positive(self, dims, n, joint_rank, ranks):
        # Every loading column has its largest-magnitude entry positive: each
        # block's individual loadings, and the stacked joint loadings, whose
        # columns are orthonormal only stacked.
        for seed in range(10):
            model = make_planted(dims, n, joint_rank, ranks, noise_sigma=0.05, seed=seed)
            result = jive_fit(model.blocks, JiveConfig(joint_rank=joint_rank, individual_ranks=ranks))
            for u in (np.vstack(result.loadings), *result.individual_loadings):
                assert (u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])] > 0).all()


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

    def test_orthogonality_deviation_matches_word_space(self):
        model = make_planted((8, 12), 90, 2, (2, 1), noise_sigma=0.05, seed=6)
        config = JiveConfig(joint_rank=2, individual_ranks=(2, 1), epsilon=1e-9)
        result = jive_fit(model.blocks, config)
        direct = max(
            np.abs(result.joint_block(i) @ result.individual_block(i).T).max() / np.sum(block**2)
            for i, block in enumerate(model.blocks)
        )
        assert abs(result.orthogonality_deviation - direct) <= 1e-12
        assert result.orthogonality_deviation <= 1e-12

    def test_max_residual_increase(self, rng):
        blocks = [rng.standard_normal((5, 30)), rng.standard_normal((6, 30))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(1, 1), epsilon=1e-7, max_iter=30))
        assert result.max_residual_increase == 0.0
        result.residual_history.append(result.residual_history[-1] + 0.5)
        assert result.max_residual_increase == pytest.approx(0.5 / total_sq(blocks), rel=1e-12)
