import importlib
import string

import numpy as np
import pytest

from corpus_util import clean_noisy_pair, separable_corpus
from embedjive.compose import compose, parse_composition
from embedjive.embed_io import EmbeddingMatrix, preprocess
from embedjive.evaluate import (
    LabeledCorpus,
    evaluate,
    featurize_corpus,
    read_corpus_tsv,
    train_linear,
)
from embedjive.jive import JiveConfig, jive_fit
from embedjive.synthetic import make_planted

# The package re-exports a function named ``evaluate``, so the module is
# reached through importlib.
evaluate_module = importlib.import_module("embedjive.evaluate")


def two_word_embedding():
    return EmbeddingMatrix(vocab=["a", "b"], data=[[1.0, 0.0], [0.0, 1.0]], name="toy")


def featurize(text, embedding):
    """One text's features: ``featurize_corpus`` on a one-record corpus."""
    features, _ = featurize_corpus(LabeledCorpus(labels=np.array([0]), texts=[text]), embedding)
    return features[0]


class TestFeaturize:
    def test_mean_of_columns(self):
        np.testing.assert_allclose(featurize("a b", two_word_embedding()), [0.5, 0.5])

    def test_all_oov_zero_vector(self):
        np.testing.assert_array_equal(featurize("zzz", two_word_embedding()), [0.0, 0.0])

    def test_normalization_rule(self):
        emb = two_word_embedding()
        np.testing.assert_array_equal(featurize("A, b!", emb), featurize("a b", emb))

    def test_oov_tokens_ignored(self):
        np.testing.assert_allclose(featurize("a qqq", two_word_embedding()), [1.0, 0.0])


def per_text_features(texts, embedding):
    """The featurization rule written out one text at a time: the oracle."""
    punct_to_space = str.maketrans({c: " " for c in string.punctuation})
    rows, all_oov = [], 0
    for text in texts:
        words = text.lower().translate(punct_to_space).split()
        columns = [embedding.vocab.index(w) for w in words if w in embedding.vocab]
        all_oov += not columns
        rows.append(embedding.data[:, columns].mean(axis=1) if columns else np.zeros(embedding.dim))
    return np.array(rows), all_oov


class TestFeaturizeCorpus:
    def test_matches_per_text_oracle(self):
        rng = np.random.default_rng(7)
        vocab = ["mu", "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa", "s"]
        embedding = EmbeddingMatrix(vocab=vocab, data=rng.standard_normal((5, len(vocab))), name="greek")
        texts = [
            "Alpha, BETA! gamma.",
            "alpha alpha beta alpha beta",
            "zzz qqq",
            "!!!",
            "alpha beta gamma delta eps zeta eta theta iota kappa mu's",
            "Kappa qqq KAPPA",
        ]
        corpus = LabeledCorpus(labels=np.array([0, 1, 0, 1, 0, 1]), texts=texts, split="test")
        features, all_oov = featurize_corpus(corpus, embedding)
        expected, expected_oov = per_text_features(texts, embedding)
        np.testing.assert_allclose(features, expected, rtol=0, atol=1e-15)
        assert all_oov == expected_oov == 2
        for text, row in zip(texts, features):
            np.testing.assert_array_equal(featurize(text, embedding), row)

    def test_opposite_words_are_not_out_of_vocabulary(self):
        embedding = EmbeddingMatrix(vocab=["a", "b"], data=[[1.0, -1.0], [0.0, 0.0]], name="opposite")
        corpus = LabeledCorpus(labels=np.array([0]), texts=["a b"])
        features, all_oov = featurize_corpus(corpus, embedding)
        np.testing.assert_array_equal(features, [[0.0, 0.0]])
        assert all_oov == 0

    def test_each_corpus_is_tokenised_once(self, monkeypatch):
        calls = []
        normalize_text = evaluate_module.normalize_text

        def counted(text):
            calls.append(text)
            return normalize_text(text)

        monkeypatch.setattr(evaluate_module, "normalize_text", counted)
        train, test, clean, noisy = clean_noisy_pair(2)
        partial = EmbeddingMatrix(vocab=clean.vocab[40:], data=clean.data[:, 40:], name="partial")
        for embedding in (clean, noisy, partial):
            evaluate(test, embedding, train_linear(train, embedding))
        assert len(calls) == len(train.texts) + len(test.texts)


class TestCorpus:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\thello there\n1\tgood, stuff!\n", encoding="utf-8")
        corpus = read_corpus_tsv(path, split="train")
        assert corpus.texts == ["hello there", "good, stuff!"]
        assert corpus.labels.tolist() == [0, 1]
        assert corpus.class_count == 2

    def test_bad_label(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\thello\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-integer label"):
            read_corpus_tsv(path)

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0 hello\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label<TAB>text"):
            read_corpus_tsv(path)

    def test_non_contiguous_classes(self):
        with pytest.raises(ValueError, match="contiguous"):
            LabeledCorpus(labels=np.array([0, 2]), texts=["a", "b"])


class TestTrainLinear:
    def test_separable_reaches_full_accuracy(self):
        corpus, embedding = separable_corpus(seed=1)
        weights = train_linear(corpus, embedding)
        result = evaluate(corpus, embedding, weights)
        assert result["accuracy"] == 1.0

    def test_l2_sweep_shrinks_weights(self):
        corpus, embedding = separable_corpus(seed=3, gap=2.0)
        norms = []
        for l2 in (0.0, 0.1, 1.0, 10.0):
            weights = train_linear(corpus, embedding, l2=l2)
            norms.append(float(np.linalg.norm(weights[:-1])))
        assert norms == sorted(norms, reverse=True)

    def test_single_class_rejected(self):
        embedding = two_word_embedding()
        corpus = LabeledCorpus(labels=np.array([0, 0]), texts=["a", "b"])
        with pytest.raises(ValueError, match="single class"):
            train_linear(corpus, embedding)

    def test_bad_hyperparameters(self):
        corpus, embedding = separable_corpus()
        for l2 in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="l2"):
                train_linear(corpus, embedding, l2=l2)
        # One record per class leaves no within-class scatter to invert.
        lone = LabeledCorpus(labels=np.array([0, 1]), texts=["a", "b"])
        with pytest.raises(ValueError, match="singular"):
            train_linear(lone, two_word_embedding(), l2=0.0)

    def test_deterministic(self):
        corpus, embedding = separable_corpus(seed=4, gap=1.0)
        a = train_linear(corpus, embedding)
        b = train_linear(corpus, embedding)
        np.testing.assert_array_equal(a, b)


class TestEvaluate:
    def test_perfect_classifier(self):
        corpus, embedding = separable_corpus(seed=5)
        weights = train_linear(corpus, embedding)
        result = evaluate(corpus, embedding, weights)
        assert result["accuracy"] == 1.0
        assert result["embedding"] == "separable"

    def test_random_weights_balanced_classes(self):
        rng = np.random.default_rng(12)
        n = 2000
        vocab = [f"w{i:04d}" for i in range(n)]
        embedding = EmbeddingMatrix(vocab=vocab, data=rng.standard_normal((5, n)), name="rand")
        corpus = LabeledCorpus(labels=rng.integers(0, 2, size=n), texts=list(vocab), split="test")
        weights = rng.standard_normal((6, 2))
        result = evaluate(corpus, embedding, weights)
        assert abs(result["accuracy"] - 0.5) <= 0.05

    def test_recall_against_confusion_matrix(self):
        corpus, embedding = separable_corpus(seed=6, gap=0.5)
        weights = train_linear(corpus, embedding)
        result = evaluate(corpus, embedding, weights)
        features = np.vstack([featurize(t, embedding) for t in corpus.texts])
        logits = np.hstack([features, np.ones((len(corpus.texts), 1))]) @ weights
        predicted = logits.argmax(axis=1)
        confusion = np.zeros((2, 2), dtype=int)
        for truth, pred in zip(corpus.labels, predicted):
            confusion[truth, pred] += 1
        for c in range(2):
            expected_recall = confusion[c, c] / confusion[c].sum()
            assert result["recall"][c] == pytest.approx(expected_recall)
            denom = confusion[:, c].sum()
            expected_precision = confusion[c, c] / denom if denom else 0.0
            assert result["precision"][c] == pytest.approx(expected_precision)

    def test_json_row(self):
        corpus, embedding = separable_corpus(seed=8)
        row = evaluate(corpus, embedding, train_linear(corpus, embedding))
        assert set(row) == {"embedding", "accuracy", "precision", "recall"}


class TestProperties:
    def test_rotation_invariance(self):
        corpus, embedding = separable_corpus(seed=9, gap=1.0)
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((embedding.dim, embedding.dim)))[0]
        rotated = EmbeddingMatrix(vocab=embedding.vocab, data=q @ embedding.data, name="rotated")
        base = evaluate(corpus, embedding, train_linear(corpus, embedding))
        turned = evaluate(corpus, rotated, train_linear(corpus, rotated))
        assert abs(base["accuracy"] - turned["accuracy"]) <= 0.01

    def test_clean_beats_noisy_ordering(self):
        wins = 0
        for seed in range(10):
            train, test, clean, noisy = clean_noisy_pair(seed)
            acc_clean = evaluate(test, clean, train_linear(train, clean))["accuracy"]
            acc_noisy = evaluate(test, noisy, train_linear(train, noisy))["accuracy"]
            wins += acc_clean >= acc_noisy
        assert wins >= 9

    def test_scale_invariance(self):
        train, test, clean, _ = clean_noisy_pair(0)
        shrunk = EmbeddingMatrix(vocab=clean.vocab, data=1e-3 * clean.data, name="clean")
        results, predictions = [], []
        for embedding in (clean, shrunk):
            weights = train_linear(train, embedding)
            results.append(evaluate(test, embedding, weights))
            features = np.vstack([featurize(t, embedding) for t in test.texts])
            logits = np.hstack([features, np.ones((len(test.texts), 1))]) @ weights
            predictions.append(logits.argmax(axis=1))
        assert results[0] == results[1]
        np.testing.assert_array_equal(predictions[0], predictions[1])

    def test_joint_component_lifts_weak_embedding(self):
        # The paper's claim on a planted pair: the joint component of a weak
        # and a strong embedding classifies better than the weak one alone.
        # Labels are the sign of a planted joint direction, one word per
        # record.  The individual parts are as strong as the joint part: with
        # weak ones the fit may trade a joint direction for the weak block's
        # noise at little cost to the strong block.
        n = 600
        model = make_planted((20, 30), n, 3, (3, 3), individual_scales=(np.ones(3), np.ones(3)), seed=1)
        rng = np.random.default_rng(1)
        weak = model.blocks[0] + 3.0 * model.blocks[0].std() * rng.standard_normal(model.blocks[0].shape)
        vocab = [f"w{i:04d}" for i in range(n)]
        labels = (model.joint_vt[0] > 0).astype(int)
        order = rng.permutation(n)
        train = LabeledCorpus(labels=labels[order[:300]], texts=[vocab[i] for i in order[:300]], split="train")
        test = LabeledCorpus(labels=labels[order[300:]], texts=[vocab[i] for i in order[300:]], split="test")

        weak_raw = EmbeddingMatrix(vocab=vocab, data=weak, name="weak")
        strong_raw = EmbeddingMatrix(vocab=vocab, data=model.blocks[1], name="strong")
        blocks = [preprocess(m).data for m in (weak_raw, strong_raw)]
        result = jive_fit(blocks, JiveConfig(joint_rank=3, individual_ranks=(3, 3)))
        joint = compose(result, parse_composition("joint", 2), vocab)

        def accuracy(embedding):
            return evaluate(test, embedding, train_linear(train, embedding))["accuracy"]

        assert accuracy(joint) > accuracy(weak_raw)
