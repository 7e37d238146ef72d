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

    @pytest.mark.parametrize(
        "token, shown",
        [("nan", "nan"), ("-Infinity", "-inf"), ("1e999", "inf"), ("1e400", "inf"), ("NaN", "nan"), ("+INFINITY", "inf")],
    )
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
        assert [m.column_index("a"), m.column_index("b")] == [0, 1]
        assert "1 duplicate" in caplog.text

    def test_word_order_preserved(self, tmp_path):
        m = parse_embedding(_write(tmp_path, "z 1\na 2\nm 3\n"), "glove-text")
        assert m.vocab == ["z", "a", "m"]
        assert [m.column_index(w) for w in m.vocab] == [0, 1, 2]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_embedding(tmp_path / "nope.txt")

    # The value syntax is numpy.loadtxt's (with comments=None).  Python's float
    # reads these forms the same way.
    @pytest.mark.parametrize(
        "token, value",
        [("+1e5", 1e5), (".5", 0.5), ("5.", 5.0), ("-0", -0.0), ("1E-3", 1e-3), ("4.9e-325", 0.0)],
    )
    def test_accepted_value_syntax(self, tmp_path, token, value):
        m = parse_embedding(_write(tmp_path, f"a 1 {token}\n"), "glove-text")
        assert m.data[1, 0] == value and np.signbit(m.data[1, 0]) == np.signbit(value)

    # Refused by float and loadtxt alike ('1.5#' only because comments are
    # off), then the forms that float reads but loadtxt does not: digit
    # grouping, Arabic-Indic and fullwidth digits.
    @pytest.mark.parametrize("token", ["1e", "0x10", "1,5", "1.5#", "1_0", "١٢", "１２"])
    def test_refused_value_syntax_names_file_line_and_token(self, tmp_path, token):
        path = _write(tmp_path, f"2 2\n\na 1 2\nb 3 {token}\n")
        with pytest.raises(FormatError) as info:
            parse_embedding(path, "auto")
        assert str(info.value) == f"{path}: line 4: non-numeric value {token!r}"


class TestParseDiagnostics:
    """Every refused line raises the message the line-by-line reading gives,
    naming the file and the physical line."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a 1 2\nb\nc 3 4\n", "line 2: expected 2 values, got 0"),
            ("\na\nb 1 2\n", "line 2: no vector values"),
            ("3 2\n\n  \na 1 2\nb 3\nc 4 5\n", "line 5: expected 2 values, got 1"),
            ("2 3\na 1 2\nb 3 4\n", "line 2: expected 3 values, got 2"),
            ("2 0\na 1\n", "line 1: header declares dimension 0"),
            ("a 1 2\nb 3 4\na 5 x\n", "line 3: non-numeric value 'x'"),
            ("a 1 2\nb 3 4 5\nc 6 y\n", "line 2: expected 2 values, got 3"),
            ("a 1 z\nb 3 4 5\n", "line 1: non-numeric value 'z'"),
        ],
        ids=["word-only", "word-only-first", "ragged-after-header-and-blank", "header-width", "header-dim-0",
             "bad-duplicate", "ragged-before-bad-token", "bad-token-before-ragged"],
    )
    def test_first_refused_line(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(FormatError) as info:
            parse_embedding(path, "auto")
        assert str(info.value) == f"{path}: {message}"

    def test_word2vec_format_needs_its_header(self, tmp_path):
        path = _write(tmp_path, "\na 1 2\n")
        with pytest.raises(FormatError) as info:
            parse_embedding(path, "word2vec-text")
        assert str(info.value) == f"{path}: line 2: expected word2vec header 'n d', got 'a 1 2'"

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(FormatError, match="empty embedding file"):
            parse_embedding(_write(tmp_path, "0 3\n\n"), "auto")

    @pytest.mark.parametrize("text", ["a 1 2\nb 3 x\n", "a 1 2\nb 3\n", "a 1 2\nb 3 nan\n"])
    def test_refusal_leaves_value_text_unchanged(self, tmp_path, text):
        value_text = ["kept"]
        with pytest.raises(FormatError):
            parse_embedding(_write(tmp_path, text), "glove-text", value_text=value_text)
        assert value_text == ["kept"]

    def test_value_text_is_single_spaced(self, tmp_path):
        text = "a 1 2\nb 3  4 \r\nc\t5\t\t6\x0c\n"
        value_text = []
        parse_embedding(_write(tmp_path, text), "glove-text", value_text=value_text)
        assert value_text == ["1 2", "3 4", "5 6"]


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


def reference_parse(path, fmt, value_text):
    """A file read one line at a time, each record's values converted by one
    ``np.array(values, dtype=float)``: the reference ``parse_embedding`` must
    agree with.  It reads Python's float syntax, so inputs given to both must
    avoid the forms only float accepts."""
    vocab, rows, seen = [], [], set()
    dim = None
    header_pending = fmt != "glove-text"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if header_pending:
                header_pending = False
                if fmt == "word2vec-text" or (len(parts) == 2 and all(t.isdecimal() for t in parts)):
                    if not (len(parts) == 2 and all(t.isdecimal() for t in parts)):
                        raise FormatError(f"{path}: line {lineno}: expected word2vec header 'n d', got {line.strip()!r}")
                    dim = int(parts[1])
                    if dim < 1:
                        raise FormatError(f"{path}: line {lineno}: header declares dimension {dim}")
                    continue
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError(f"{path}: line {lineno}: no vector values")
            if len(values) != dim:
                raise FormatError(f"{path}: line {lineno}: expected {dim} values, got {len(values)}")
            try:
                vec = np.array(values, dtype=float)
            except ValueError:
                bad = next(t for t in values if not _parses_as_float(t))
                raise FormatError(f"{path}: line {lineno}: non-numeric value {bad!r}") from None
            if word in seen:
                continue
            seen.add(word)
            vocab.append(word)
            rows.append(vec)
            value_text.append(" ".join(values))
    if not vocab:
        raise FormatError(f"{path}: empty embedding file")
    data = np.vstack(rows).T
    if not np.isfinite(data).all():
        j, i = np.argwhere(~np.isfinite(data.T))[0]
        raise FormatError(f"{path}: non-finite value {float(data[i, j])!r} for word {vocab[j]!r}")
    return vocab, data


def _parses_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=6).map(str),
    st.sampled_from(["+1e5", ".5", "5.", "-0", "1E-3", "0.000001", "nan", "-Infinity", "1e400", "4.9e-325"]),
)
_bad_values = st.sampled_from(["x", "1e", "0x10", "1,5", "1.5#", "--1", "1.5f"])
_gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\x0c", "　"])
_ends = st.sampled_from(["\n", "\r\n", " \n", "\t\r\n"])


@st.composite
def embedding_files(draw):
    """The text of an embedding file, its format and the format to read it as."""
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(st.text(alphabet="ab1_é", min_size=1, max_size=3), min_size=1, max_size=8))
    lines = []
    for word in words:
        values = draw(st.lists(_values, min_size=dim, max_size=dim))
        if draw(st.integers(0, 19)) == 0:  # a refused record now and then
            broken = draw(st.integers(0, 2))
            if broken == 0:
                values[draw(st.integers(0, dim - 1))] = draw(_bad_values)
            else:
                values = values[: draw(st.integers(0, dim - 1))] if broken == 1 else values + ["1"]
        gaps = draw(st.lists(_gaps, min_size=len(values), max_size=len(values)))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + word + "".join(gap + value for gap, value in zip(gaps, values)) + draw(_ends))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["\n", "\r\n", " \t\n"])))
    header = draw(st.booleans())
    if header:
        lines.insert(0, f"{draw(st.sampled_from([len(words), len(words) + 1]))} {dim}\n")
    read_as = draw(st.sampled_from(["auto", "word2vec-text" if header else "glove-text"]))
    return "".join(lines), read_as


@settings(deadline=None, max_examples=300)
@given(file=embedding_files())
def test_parse_matches_line_by_line_reference(tmp_path_factory, file):
    text, fmt = file
    path = tmp_path_factory.mktemp("io") / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    expected_text, value_text = [], []
    try:
        vocab, data = reference_parse(path, fmt, expected_text)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            parse_embedding(path, fmt, value_text=value_text)
        assert str(info.value) == str(exc)
        assert value_text == []
        return
    m = parse_embedding(path, fmt, value_text=value_text)
    assert m.vocab == vocab
    assert m.data.dtype == data.dtype and m.data.shape == data.shape and m.data.strides == data.strides
    assert m.data.tobytes() == data.tobytes()
    assert value_text == expected_text
