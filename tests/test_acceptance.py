"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria are property-based on planted models; statistical checks run with
frozen seeds so the suite is deterministic.
"""

import json
import resource
import time
from contextlib import contextmanager

import numpy as np
import pytest

from corpus_util import clean_noisy_pair, separable_corpus, write_corpus_tsv
from embedjive.cli import main
from embedjive.embed_io import EmbeddingMatrix, parse_embedding, write_embedding
from embedjive.evaluate import evaluate, train_linear
from embedjive.jive import PCT_KEYS, JiveConfig, jive_fit, variance_explained
from embedjive.linalg import principal_angle_sines
from embedjive.rank_select import select_joint_rank
from embedjive.synthetic import make_planted, sigma_for_noise_fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {description}", flush=True)
        raise
    print(f"[criterion {number}] PASS: {description}", flush=True)


def planted_criterion_model(noise_sigma, seed):
    return make_planted(
        (20, 30), 200, 3, (2, 2),
        joint_scales=np.ones(3),
        individual_scales=(np.full(2, 0.2), np.full(2, 0.2)),
        noise_sigma=noise_sigma,
        seed=seed,
    )


def test_criterion_1_noiseless_planted_recovery():
    with criterion(1, "noiseless planted recovery: exact residual and planted energy split"):
        start = time.perf_counter()
        model = planted_criterion_model(0.0, seed=11)
        config = JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-12, max_iter=800)
        result = jive_fit(model.blocks, config)
        total_sq = sum(float(np.sum(b**2)) for b in model.blocks)
        assert result.residual_history[-1] <= 1e-16 * total_sq
        report = variance_explained(result)
        for i in range(2):
            joint, individual, residual = model.expected_pct(i)
            assert abs(report["blocks"][i]["joint_pct"] - joint) <= 1e-6
            assert abs(report["blocks"][i]["individual_pct"] - individual) <= 1e-6
            assert abs(report["blocks"][i]["residual_pct"] - residual) <= 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_2_noisy_planted_recovery():
    # Noise pinned at 5% of total energy.  No estimator gets the joint row
    # space much closer than sigma * sqrt(n) / s at this noise (the minimax
    # rate for singular subspaces; Cai & Zhang, Ann. Statist. 2018), so the
    # bound is tied to a reference on the same draws rather than an absolute
    # sine.  The reference is ``PlantedModel.oracle_joint_vt``: the stacked
    # SVD after projecting the rows off the planted individual row spaces,
    # which a fit never sees.  On seeds 100-109 the mean largest sine is 0.059
    # for the oracle (per seed 0.053-0.065), 0.060 for least squares given the
    # planted loadings and individual parts, 0.063 for the analytic
    # sigma / sqrt(2) * (sqrt(n - r - 5) + sqrt(r)), 0.065 for the converged
    # fit and 0.079 for one stacked truncation without later sweeps (sweep 0).
    # An absolute bound of 0.05 is out of reach for any estimator.  Over twenty
    # groups of ten seeds (100-299) the fit/oracle ratio of the means ran
    # 1.07-1.11 and the sweep-0/oracle ratio 1.30-1.47; the factor 1.2
    # passes a converged fit with margin and fails a fit that stops at its
    # first truncation or lets individual signal leak into the joint space.
    with criterion(2, "noisy planted recovery: mean joint-subspace sine within 1.2x the oracle's at 5% noise"):
        start = time.perf_counter()
        noiseless = planted_criterion_model(0.0, seed=100)
        assert principal_angle_sines(noiseless.oracle_joint_vt(noiseless.blocks), noiseless.joint_vt).max() <= 1e-12
        joint_scales = np.ones(3)
        individual_scales = (np.full(2, 0.2), np.full(2, 0.2))
        signal_sq = 2 * float(np.sum(joint_scales**2)) + 2 * float(np.sum(individual_scales[0] ** 2))
        sigma = sigma_for_noise_fraction((20, 30), 200, signal_sq, 0.05)
        fit_sines, oracle_sines = [], []
        for seed in range(10):
            model = planted_criterion_model(sigma, seed=100 + seed)
            config = JiveConfig(joint_rank=3, individual_ranks=(2, 2), epsilon=1e-9)
            result = jive_fit(model.blocks, config)
            fit_sines.append(float(principal_angle_sines(result.joint_vt, model.joint_vt).max()))
            oracle_vt = model.oracle_joint_vt(model.blocks)
            oracle_sines.append(float(principal_angle_sines(oracle_vt, model.joint_vt).max()))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        fit_mean, oracle_mean = float(np.mean(fit_sines)), float(np.mean(oracle_sines))
        assert fit_mean <= 1.2 * oracle_mean, (
            f"average largest sine {fit_mean:.4f} over 10 seeds, oracle {oracle_mean:.4f}, "
            f"bound {1.2 * oracle_mean:.4f}"
        )


@pytest.fixture(scope="module")
def random_instance_fits():
    rng = np.random.default_rng(2024)
    runs = []
    for _ in range(100):
        p1, p2 = (int(v) for v in rng.integers(3, 41, size=2))
        n = int(rng.integers(50, 501))
        blocks = [rng.standard_normal((p1, n)), rng.standard_normal((p2, n))]
        joint_rank = int(rng.integers(0, min(p1, p2) + 1))
        ranks = (int(rng.integers(0, p1 + 1)), int(rng.integers(0, p2 + 1)))
        config = JiveConfig(joint_rank=joint_rank, individual_ranks=ranks, epsilon=1e-7, max_iter=60)
        result = jive_fit(blocks, config)
        runs.append((blocks, result))
    return runs


def test_criterion_3_monotone_convergence(random_instance_fits):
    with criterion(3, "monotone residuals and joint/individual orthogonality on 100 random instances"):
        for blocks, result in random_instance_fits:
            history = result.residual_history
            for a, b in zip(history, history[1:]):
                assert b <= a + 1e-12
            for i, block in enumerate(blocks):
                cross = result.joint_block(i) @ result.individual_block(i).T
                if cross.size:
                    assert np.abs(cross).max() <= 1e-8 * np.linalg.norm(block)


def test_criterion_4_rank_selection_nulls_and_signals():
    with criterion(4, "rank selection: duplicated blocks give r=5 in 100/100, independent give r=0 in >=95/100"):
        start = time.perf_counter()
        identical_hits = 0
        for run in range(100):
            rng = np.random.default_rng(5000 + run)
            block = rng.standard_normal((12, 300))
            decision = select_joint_rank([block, block.copy()], (5, 5), resamples=100, quantile=0.95, seed=6000 + run)
            identical_hits += decision["joint_rank"] == 5
        assert identical_hits == 100
        # The Monte Carlo null alone, read off the recorded threshold, and the
        # shipped rule, whose Wedin floor can only raise the threshold.
        null_hits = rule_hits = 0
        for run in range(100):
            rng = np.random.default_rng(7_002_000 + run)
            blocks = [rng.standard_normal((20, 2000)), rng.standard_normal((20, 2000))]
            decision = select_joint_rank(blocks, (5, 5), resamples=100, quantile=0.95, seed=7_007_000 + run)
            null_hits += decision["spectrum"][0] <= decision["tau_null"]
            rule_hits += decision["joint_rank"] == 0
        assert null_hits >= 95, f"null alone: r=0 in {null_hits}/100 independent runs"
        assert rule_hits >= 95, f"r=0 in {rule_hits}/100 independent runs"
        assert time.perf_counter() - start < 60.0


def test_criterion_5_pythagorean_variance_split(random_instance_fits):
    with criterion(5, "variance percentages sum to 100 +- 0.1 per block on the criterion-3 instances"):
        for blocks, result in random_instance_fits:
            report = variance_explained(result)
            for i in range(len(blocks)):
                total = sum(report["blocks"][i][key] for key in PCT_KEYS)
                assert 99.9 <= total <= 100.1


def test_criterion_6_io_round_trip_and_byte_identical_rerun(tmp_path, capsys):
    with criterion(6, "io round trip at 1e-9 and byte-identical decompose rerun"):
        rng = np.random.default_rng(33)
        vocab = [f"word{i:05d}" for i in range(1000)]
        emb = EmbeddingMatrix(vocab=vocab, data=rng.standard_normal((50, 1000)), name="big")
        path = tmp_path / "big.txt"
        write_embedding(emb, path)
        back = parse_embedding(path, "glove-text")
        assert np.abs(back.data - emb.data).max() <= 1e-9

        model = make_planted((6, 8), 40, 2, (1, 1), joint_scales=(2.0, 1.5),
                             individual_scales=((0.8,), (0.8,)), noise_sigma=0.02, seed=13)
        inputs = []
        for i, block in enumerate(model.blocks):
            block_path = tmp_path / f"in{i}.txt"
            write_embedding(EmbeddingMatrix(vocab=[f"w{j:03d}" for j in range(40)], data=block), block_path)
            inputs.append(str(block_path))
        argv_tail = [
            "--input", inputs[0], "--input", inputs[1],
            "--joint-rank", "2", "--individual-ranks", "1,1", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(["decompose", *argv_tail, "--out-dir", str(out_a)]) == 0
        assert main(["decompose", *argv_tail, "--out-dir", str(out_b)]) == 0
        capsys.readouterr()
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        for name in sorted(manifest_a["outputs"]) + ["manifest.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_criterion_7_nested_row_spaces():
    with criterion(7, "nested factor models: joint explains >= 99.9% of the low-dimensional block"):
        rng = np.random.default_rng(3)
        n = 2000
        frame = np.linalg.qr(rng.standard_normal((n, 100)))[0]
        low_vt, extra_vt = frame[:, :50].T, frame[:, 50:].T

        def loadings(p, k, low, high):
            q = np.linalg.qr(rng.standard_normal((p, k)))[0]
            return q * rng.uniform(low, high, k)

        x_low = loadings(50, 50, 0.5, 1.5) @ low_vt
        x_high = loadings(100, 50, 0.5, 1.5) @ low_vt + loadings(100, 50, 0.35, 1.0) @ extra_vt
        config = JiveConfig(joint_rank=50, individual_ranks=(0, 50), epsilon=1e-10, max_iter=500)
        result = jive_fit([x_low, x_high], config)
        report = variance_explained(result)
        assert report["blocks"][0]["joint_pct"] >= 99.9


def test_criterion_8_eval_harness(tmp_path):
    with criterion(8, "eval harness: separable corpus at accuracy 1.0, clean beats noisy in >= 9/10 seeds"):
        start = time.perf_counter()
        corpus, embedding = separable_corpus(seed=42)
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_tsv(corpus, corpus_path)
        weights = train_linear(corpus, embedding)
        assert evaluate(corpus, embedding, weights)["accuracy"] == 1.0
        wins = 0
        for seed in range(10):
            train, test, clean, noisy = clean_noisy_pair(seed)
            acc_clean = evaluate(test, clean, train_linear(train, clean))["accuracy"]
            acc_noisy = evaluate(test, noisy, train_linear(train, noisy))["accuracy"]
            wins += acc_clean >= acc_noisy
        assert wins >= 9, f"clean embedding won {wins}/10 seed runs"
        assert time.perf_counter() - start < 60.0


def test_criterion_9_vocabulary_scale_decomposition():
    with criterion(9, "p=(50,200), n=20000, r=50 decomposition under 5 minutes and 4 GB"):
        joint_scales = np.linspace(1.5, 1.0, 50)
        individual_scales = [np.zeros(0), np.linspace(0.8, 0.5, 50)]
        signal_sq = 2 * float(np.sum(joint_scales**2)) + float(np.sum(individual_scales[1] ** 2))
        sigma = sigma_for_noise_fraction((50, 200), 20000, signal_sq, 0.02)
        model = make_planted((50, 200), 20000, 50, (0, 50), joint_scales=joint_scales,
                             individual_scales=individual_scales, noise_sigma=sigma, seed=90)
        start = time.perf_counter()
        result = jive_fit(model.blocks, JiveConfig(joint_rank=50, individual_ranks=(0, 50)))
        elapsed = time.perf_counter() - start
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        assert result.converged
        assert elapsed < 300.0, f"decomposition took {elapsed:.1f}s"
        assert peak_gb < 4.0, f"peak memory {peak_gb:.2f} GB"
