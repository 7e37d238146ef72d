import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedjive.embed_io import (
    EmbeddingMatrix,
    FormatError,
    align_vocabularies,
    parse_embedding,
    preprocess,
    write_embedding,
)


def _write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_glove_basic(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "a 1.0 2.0\nb 3.0 4.0\n"), "glove-text")
        assert m.vocab == ["a", "b"]
        np.testing.assert_array_equal(m.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_word2vec_header(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"), "word2vec-text")
        assert (m.dim, m.n_words) == (3, 2)

    def test_auto_sniffs_header(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "2 2\na 1 0\nb 0 1\n"), "auto")
        assert (m.dim, m.n_words) == (2, 2)

    def test_auto_without_header_is_glove(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "a 1 0\nb 0 1\n"), "auto")
        assert (m.dim, m.n_words) == (2, 2)

    def test_non_decimal_digit_is_no_header(self, tmp_path):
        # '²' is a digit to str.isdigit but not a number to int().
        path = _write(tmp_path, "\u00b2 3\nfoo 1\n")
        with pytest.raises(FormatError, match=r"line 1: expected word2vec header 'n d', got '\u00b2 3'") as info:
            parse_embedding(path, "word2vec-text")
        assert str(path) in str(info.value)
        m = parse_embedding(path, "auto")
        assert m.vocab == ["\u00b2", "foo"]
        np.testing.assert_array_equal(m.data, [[3.0, 1.0]])

    def test_inconsistent_length(self, tmp_path):
        with pytest.raises(FormatError, match=r"line 2: expected 2 values, got 1"):
            parse_embedding(_write(tmp_path, "a 1.0 2.0\nb 3.0\n"), "glove-text")

    def test_non_numeric_token(self, tmp_path):
        with pytest.raises(FormatError, match=r"line 1: non-numeric value 'x2'"):
            parse_embedding(_write(tmp_path, "a 1.0 x2\nb 1.0 2.0\n"), "glove-text")

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            parse_embedding(_write(tmp_path, ""), "glove-text")

    @pytest.mark.parametrize("token, shown", [("nan", "nan"), ("-Infinity", "-inf"), ("1e999", "inf")])
    def test_non_finite_value_names_file_and_word(self, tmp_path, token, shown):
        path = _write(tmp_path, f"a 1.0 2.0\nb 3.0 {token}\n")
        with pytest.raises(FormatError, match=rf"non-finite value {shown} for word 'b'") as info:
            parse_embedding(path, "glove-text")
        assert str(path) in str(info.value)

    def test_value_text_follows_vocabulary(self, tmp_path):
        text = []
        m = parse_embedding(_write(tmp_path, "2 2\na\t1.0  2e0\na 5 5\nb -0 3\n"), "auto", value_text=text)
        assert m.vocab == ["a", "b"]
        assert text == ["1.0 2e0", "-0 3"]

    def test_duplicate_first_wins(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            m = parse_embedding(_write(tmp_path, "a 1 1\na 2 2\nb 3 3\n"), "glove-text")
        assert m.vocab == ["a", "b"]
        np.testing.assert_array_equal(m.data[:, 0], [1.0, 1.0])
        assert "1 duplicate" in caplog.text

    def test_word_order_preserved(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "z 1\na 2\nm 3\n"), "glove-text")
        assert m.vocab == ["z", "a", "m"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_embedding(tmp_path / "nope.txt")


class TestMatrixInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingMatrix(vocab=["a"], data=[[np.nan]])

    def test_rejects_duplicate_vocab(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingMatrix(vocab=["a", "a"], data=[[1.0, 2.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="vocab length"):
            EmbeddingMatrix(vocab=["a"], data=[[1.0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            EmbeddingMatrix(vocab=[], data=np.zeros((2, 0)))


class TestAlign:
    def _emb(self, vocab, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingMatrix(vocab=vocab, data=rng.standard_normal((3, len(vocab))), name="e")

    def test_intersection(self):
        a, b = self._emb(["a", "b", "c"]), self._emb(["b", "c", "d"], seed=1)
        aligned, dropped = align_vocabularies([a, b])
        assert aligned[0].vocab == aligned[1].vocab == ["b", "c"]
        assert dropped == [1, 1]
        np.testing.assert_array_equal(aligned[0].data, a.data[:, [1, 2]])

    def test_identity(self):
        a, b = self._emb(["a", "b"]), self._emb(["a", "b"], seed=1)
        aligned, dropped = align_vocabularies([a, b])
        assert dropped == [0, 0]
        assert aligned[0].n_words == 2

    def test_disjoint(self):
        with pytest.raises(ValueError, match="no shared vocabulary"):
            align_vocabularies([self._emb(["a"]), self._emb(["b"])])

    def test_identical_vocab_arrays(self):
        blocks = [self._emb(["c", "a", "b"]), self._emb(["b", "c", "a"], seed=1), self._emb(["a", "c", "b"], seed=2)]
        aligned, _ = align_vocabularies(blocks)
        for m in aligned[1:]:
            assert m.vocab == aligned[0].vocab

    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            align_vocabularies([self._emb(["a"])])


class TestPreprocess:
    def test_small_example(self):
        m = EmbeddingMatrix(vocab=["u", "v"], data=[[1.0, 3.0], [2.0, 2.0]])
        out = preprocess(m)
        expected = np.array([[-1.0, 1.0], [0.0, 0.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_idempotent(self, rng):
        m = EmbeddingMatrix(vocab=[f"w{i}" for i in range(30)], data=rng.standard_normal((4, 30)))
        once = preprocess(m)
        twice = preprocess(once)
        assert np.abs(twice.data - once.data).max() < 1e-12

    def test_against_two_pass_oracle(self, rng):
        m = EmbeddingMatrix(vocab=[f"w{i}" for i in range(100)], data=rng.standard_normal((5, 100)) * 3 + 1)
        out = preprocess(m)
        # independent two-pass computation with compensated sums
        for row in out.data:
            assert abs(math.fsum(row) / len(row)) < 1e-12
        fro = math.sqrt(math.fsum(v * v for v in out.data.ravel()))
        assert abs(fro - 1.0) < 1e-12

    def test_degenerate(self):
        m = EmbeddingMatrix(vocab=["a", "b"], data=[[2.0, 2.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match="zero variance"):
            preprocess(m)

    def test_needs_two_words(self):
        with pytest.raises(ValueError, match="at least 2 words"):
            preprocess(EmbeddingMatrix(vocab=["a"], data=[[1.0]]))


class TestWrite:
    def test_round_trip_exact(self, tmp_path, rng):
        m = EmbeddingMatrix(vocab=["a", "b", "c", "dd", "e"], data=rng.standard_normal((3, 5)) * 10)
        path = tmp_path / "out.txt"
        write_embedding(m, path)
        back = parse_embedding(path, "glove-text")
        assert back.vocab == m.vocab
        np.testing.assert_array_equal(back.data, m.data)

    def test_word2vec_round_trip(self, tmp_path, rng):
        m = EmbeddingMatrix(vocab=["x", "y"], data=rng.standard_normal((4, 2)))
        path = tmp_path / "out.txt"
        write_embedding(m, path, "word2vec-text")
        assert path.read_text().splitlines()[0] == "2 4"
        back = parse_embedding(path, "word2vec-text")
        np.testing.assert_array_equal(back.data, m.data)

    def test_whitespace_word_rejected(self, tmp_path):
        m = EmbeddingMatrix(vocab=["a b"], data=[[1.0]])
        with pytest.raises(ValueError, match="word contains whitespace"):
            write_embedding(m, tmp_path / "out.txt")

    def test_values_are_shortest_round_trip_repr(self, tmp_path, rng):
        m = EmbeddingMatrix(vocab=["a", "b", "c"], data=np.hstack([[[0.5], [-2.0]], rng.standard_normal((2, 2))]))
        path = tmp_path / "out.txt"
        write_embedding(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a 0.5 -2.0"
        tokens = [token for line in lines for token in line.split()[1:]]
        assert len(tokens) == 6
        assert all(token == repr(float(token)) for token in tokens)

    @pytest.mark.parametrize("fmt", ["glove-text", "word2vec-text"])
    def test_edge_values_round_trip(self, tmp_path, fmt):
        values = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 1 / 3]
        m = EmbeddingMatrix(vocab=["x", "y"], data=np.array([values, [-v for v in values]]).T)
        path = tmp_path / "out.txt"
        write_embedding(m, path, fmt)
        back = parse_embedding(path, fmt)
        np.testing.assert_array_equal(back.data, m.data)
        assert np.signbit(back.data[0, 0]) and not np.signbit(back.data[0, 1])


words_strategy = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits + "_", min_size=1, max_size=8),
    min_size=1,
    max_size=12,
    unique=True,
)


@settings(deadline=None, max_examples=40)
@given(words=words_strategy, dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(["glove-text", "word2vec-text"]))
def test_parse_write_round_trip_property(tmp_path_factory, words, dim, seed, fmt):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7)
    m = EmbeddingMatrix(vocab=words, data=rng.standard_normal((dim, len(words))) * scale)
    path = tmp_path_factory.mktemp("io") / "emb.txt"
    write_embedding(m, path, fmt)
    back = parse_embedding(path, fmt)
    assert back.vocab == m.vocab
    np.testing.assert_array_equal(back.data, m.data)
