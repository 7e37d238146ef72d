import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import embedjive.cli
import embedjive.jobs
from corpus_util import clean_noisy_pair, separable_corpus, write_corpus_tsv
from embedjive.cli import main
from embedjive.compose import compose, standard_compositions
from embedjive.embed_io import EmbeddingMatrix, align_vocabularies, parse_embedding, preprocess, write_embedding
from embedjive.jive import BlockStack, JiveConfig, jive_fit
from embedjive.synthetic import make_planted
from fork_util import assert_no_child_left, counting_forks, deadline


@pytest.fixture()
def input_files(tmp_path):
    model = make_planted(
        (6, 8), 40, 2, (1, 1),
        joint_scales=(2.0, 1.6), individual_scales=((0.9,), (0.9,)),
        noise_sigma=0.02, seed=31,
    )
    vocab = [f"w{i:03d}" for i in range(40)]
    paths = []
    for i, block in enumerate(model.blocks):
        emb = EmbeddingMatrix(vocab=vocab, data=block, name=f"in{i}")
        path = tmp_path / f"in{i}.txt"
        write_embedding(emb, path)
        paths.append(str(path))
    return paths


def _set_value(path, line_index, token):
    """Replace the first value on one line of an embedding file with ``token``."""
    lines = path.read_text().splitlines(True)
    word, _, *rest = lines[line_index].split()
    lines[line_index] = " ".join([word, token, *rest]) + "\n"
    path.write_text("".join(lines))


def _drop_key(model_dir, *keys):
    record = json.loads((model_dir / "model.json").read_text())
    for key in keys:
        del record[key]
    (model_dir / "model.json").write_text(json.dumps(record))


def _set_key(model_dir, key, value):
    record = json.loads((model_dir / "model.json").read_text())
    (model_dir / "model.json").write_text(json.dumps(record | {key: value}))


# One model.json value of the wrong kind at a time, as (test id, key, value);
# the fixture's model records joint rank 2, individual ranks [1, 1] and 40 words.
MODEL_MUTATIONS = [
    *[(f"{key}-{label}", key, value) for key in ("block_names", "individual_files", "individual_ranks")
      for label, value in [("null", None), ("3", 3), ("true", True)]],
    *[(f"joint_file-{label}", "joint_file", value)
      for label, value in [("3", 3), ("list", ["joint.txt"]), ("object", {}), ("true", True)]],
    ("block_names-nulls", "block_names", [None, None]),
    ("joint_rank-string", "joint_rank", "2"),
    ("joint_rank-float", "joint_rank", 2.0),
    ("n_words-string", "n_words", "40"),
    ("individual_ranks-float", "individual_ranks", [1.0, 1]),
    ("joint_sq-negative", "joint_sq", [-0.5, 0.5]),
    ("epsilon-string", "epsilon", "1e-06"),
    ("converged-int", "converged", 1),
]


def planted_inputs(tmp_path, dims, n, joint_rank, individual_ranks, seed):
    """Embedding files with planted ranks whose noise puts the default 95%
    signal-rank cut in the middle of each block's weakest component, so the
    signal ranks are the planted joint plus individual ranks."""
    rng = np.random.default_rng(seed)
    # Rows orthogonal to the all-ones direction, so centering leaves the signal.
    frame = np.hstack([np.ones((n, 1)), rng.standard_normal((n, joint_rank + sum(individual_ranks)))])
    rows = np.linalg.qr(frame)[0].T[1:]
    joint, rest = rows[:joint_rank], rows[joint_rank:]
    vocab = [f"w{i:04d}" for i in range(n)]
    paths = []
    for i, (p, r) in enumerate(zip(dims, individual_ranks)):
        own, rest = rest[:r], rest[r:]
        sv = np.concatenate([np.linspace(1.0, 0.9, joint_rank), np.linspace(0.85, 0.75, r)])
        loadings = np.linalg.qr(rng.standard_normal((p, sv.size)))[0]
        sq = sv**2
        # Noise spreads evenly over the p directions, sv.size of which the
        # top signal directions absorb.
        noise_sq = (0.05 * sq.sum() - sq[-1] / 2) / (0.95 - (sv.size - 0.5) / p)
        noise = rng.standard_normal((p, n))
        block = loadings @ (sv[:, None] * np.vstack([joint, own])) + noise * np.sqrt(noise_sq / np.vdot(noise, noise))
        path = tmp_path / f"planted{i}.txt"
        write_embedding(EmbeddingMatrix(vocab=vocab, data=block, name=f"planted{i}"), path)
        paths.append(str(path))
    return paths


def exit_code(argv):
    """``main``'s exit code, whether returned or raised by argparse as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_decompose(paths, out_dir, extra=()):
    return main(
        [
            "decompose",
            "--input", paths[0],
            "--input", paths[1],
            "--joint-rank", "2",
            "--individual-ranks", "1,1",
            "--seed", "3",
            "--out-dir", str(out_dir),
            *extra,
        ]
    )


class TestDecompose:
    def test_outputs_and_golden_rerun(self, input_files, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        before = [Path(p).read_bytes() for p in input_files]
        assert run_decompose(input_files, out_a) == 0
        assert run_decompose(input_files, out_b) == 0
        capsys.readouterr()
        names = ["joint.txt", "ind_0.txt", "ind_1.txt", "report.json", "fit_log.txt", "model.json", "manifest.json"]
        for name in names:
            assert (out_a / name).exists(), name
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert [Path(p).read_bytes() for p in input_files] == before

    def test_missing_input(self, input_files, tmp_path, capsys):
        code = run_decompose([input_files[0], str(tmp_path / "absent.txt")], tmp_path / "out")
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_empty_model_rejected(self, input_files, tmp_path, capsys):
        code = main(
            [
                "decompose",
                "--input", input_files[0],
                "--input", input_files[1],
                "--joint-rank", "0",
                "--individual-ranks", "0,0",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "empty model" in capsys.readouterr().err

    def test_pinned_ranks_above_numerical_rank_exit_2(self, input_files, tmp_path, capsys):
        # Three equal rows make a rank-1 block; a second individual direction
        # there would be an arbitrary null direction written out as a factor.
        path = tmp_path / "rank1.txt"
        row = np.random.default_rng(5).standard_normal(40)
        write_embedding(EmbeddingMatrix([f"w{i:03d}" for i in range(40)], np.vstack([row] * 3), "rank1"), path)
        out = tmp_path / "out"
        argv = ["decompose", "--input", input_files[0], "--input", str(path), "--joint-rank", "1",
                "--individual-ranks", "2,2", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "joint rank 1 plus individual rank 2 exceeds the numerical rank 1 of block 1 (rank1)" in err
        assert not out.exists()
        assert main(argv[:-3] + ["2,0", "--out-dir", str(out)]) == 0

    def test_needs_two_inputs(self, input_files, tmp_path, capsys):
        code = main(["decompose", "--input", input_files[0], "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_manifest_contents(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        run_decompose(input_files, out)
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["config"]["seed"] == 3
        assert len(manifest["inputs"]) == 2
        for record in manifest["inputs"]:
            assert len(record["sha256"]) == 64
        assert "joint.txt" in manifest["outputs"]

    def test_factor_files_parse(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        run_decompose(input_files, out)
        capsys.readouterr()
        joint = parse_embedding(out / "joint.txt", "glove-text")
        assert joint.dim == 2 and joint.n_words == 40
        log_lines = (out / "fit_log.txt").read_text().splitlines()
        assert log_lines[0].startswith("iter=0 R=")
        assert all("rel_change=" in line for line in log_lines)

    def test_factor_files_hold_the_fitted_floats(self, tmp_path, capsys):
        paths = planted_inputs(tmp_path, (24, 30), 400, 8, (4, 6), seed=1)
        out = tmp_path / "out"
        argv = ["decompose", "--input", paths[0], "--input", paths[1], "--joint-rank", "8",
                "--individual-ranks", "4,6", "--out-dir", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        parsed = [parse_embedding(path) for path in paths]
        dims, names = [m.dim for m in parsed], [m.name for m in parsed]
        vocab, data, _ = align_vocabularies(parsed)
        preprocess(data, dims, names)
        stack = BlockStack(data, dims, names, vocab)
        result = jive_fit(stack, JiveConfig(joint_rank=8, individual_ranks=(4, 6)))
        fitted = {"joint.txt": result.joint_basis, "ind_0.txt": result.individual_scores[0],
                  "ind_1.txt": result.individual_scores[1]}
        for name, scores in fitted.items():
            factor = parse_embedding(out / name, "glove-text")
            assert factor.vocab == stack.vocab, name
            assert np.array_equal(factor.data, scores), name

    def test_fit_log_follows_residual_history(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_decompose(input_files, out, ["--epsilon", "1e-12"]) == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text())
        lines = (out / "fit_log.txt").read_text().splitlines()
        assert model["iterations"] >= 2 and len(lines) == model["iterations"] + 1
        fields = [dict(token.split("=") for token in line.split(" ")) for line in lines]
        assert [int(f["iter"]) for f in fields] == list(range(len(lines)))
        history = [float(f["R"]) for f in fields]
        assert fields[0]["rel_change"] == "nan"
        for t in range(1, len(history)):
            assert float(fields[t]["rel_change"]) == (history[t - 1] - history[t]) / history[t - 1]
        assert history[-1] == model["final_residual"]
        steps = [f["step"] for f in fields]
        assert steps[0] == "plain" and set(steps) <= {"plain", "extrapolated"}
        assert type(model["extrapolations_rejected"]) is int and model["extrapolations_rejected"] >= 0

    def test_model_json_keys_read_elsewhere(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_decompose(input_files, out) == 0
        capsys.readouterr()
        model = json.loads((out / "model.json").read_text())
        # perfbench/workloads.py reads the first three; tests and the README the rest.
        assert model["joint_file"] == "joint.txt"
        assert model["individual_files"] == ["ind_0.txt", "ind_1.txt"]
        assert model["converged"] is True
        assert model["tau"] is None and model["rank_decision"] is None
        assert model["stop_reason"] == "tolerance" and model["iterations"] >= 1
        assert set(model["invariants"]) == {"max_residual_increase", "orthogonality_deviation", "energy_split_deviation"}
        assert model["n_words"] == 40
        assert model["joint_rank"] == 2 and model["individual_ranks"] == [1, 1]
        # There is one fit mode, so no artifact records one.
        provenance = json.loads((out / "report.json").read_text())["provenance"]
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert all("enforce_orthogonality" not in d for d in (model, provenance, config))
        # Model directories that still carry the key read as before.
        model["enforce_orthogonality"] = True
        (out / "model.json").write_text(json.dumps(model))
        assert main(["report", "--model", str(out)]) == 0
        assert main(["compose", "--model", str(out), "--out-dir", str(tmp_path / "composed")]) == 0

    def test_auto_ranks_run(self, input_files, tmp_path, capsys):
        code = main(
            [
                "decompose",
                "--input", input_files[0],
                "--input", input_files[1],
                "--seed", "5",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "out" / "model.json").read_text())
        assert sidecar["tau"] is not None
        capsys.readouterr()

    def test_rank_decision_persisted(self, input_files, tmp_path, capsys):
        argv = ["decompose", "--input", input_files[0], "--input", input_files[1], "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out-dir", str(out_a)]) == 0
        assert main([*argv, "--out-dir", str(out_b)]) == 0
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        sidecar = json.loads((out_a / "model.json").read_text())
        decision = sidecar["rank_decision"]
        assert decision["tau"] == sidecar["tau"] and decision["joint_rank"] == sidecar["joint_rank"]
        assert decision["seed"] == 5 and "method" not in decision
        assert len(decision["signal_ranks"]) == 2 and len(decision["wedin_sin2"]) == 2
        assert len(decision["spectrum"]) == sum(decision["signal_ranks"])
        assert decision["tau_null"] is not None and decision["tau_wedin"] is not None
        pinned = tmp_path / "pinned"
        assert run_decompose(input_files, pinned) == 0
        capsys.readouterr()
        assert json.loads((pinned / "model.json").read_text())["rank_decision"] is None
        assert decision["individual_ranks"] == sidecar["individual_ranks"]
        # There is one joint-rank rule and no flag that picks another.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--rank-mode", "null", "--out-dir", str(tmp_path / "null")])
        assert exc.value.code == 2

    def test_auto_ranks_recover_planted(self, tmp_path, capsys):
        # The individual ranks are the signal ranks minus the joint rank.  A
        # second energy rule on the leftover after the joint space is
        # projected off picked (11, 13) here and needed hundreds of sweeps.
        paths = planted_inputs(tmp_path, (24, 30), 400, 8, (4, 6), seed=1)
        out = tmp_path / "out"
        assert main(["decompose", "--input", paths[0], "--input", paths[1], "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        model = json.loads((out / "model.json").read_text())
        assert model["rank_decision"]["signal_ranks"] == [12, 14]
        assert model["joint_rank"] == 8 and model["individual_ranks"] == [4, 6]
        assert model["stop_reason"] == "tolerance"

    def test_flags_take_no_abbreviation(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["decompose", "--input", input_files[0], "--input", input_files[1], "--joint", "2", "--indiv", "1,1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "--out-dir" in capsys.readouterr().err
        assert not out.exists()


def parent_route(specs):
    """The compression route that the word-major buffer replaced: aligned
    copies of the parsed blocks, preprocessed copies of those, ``np.vstack``
    and the QR of its transpose.  Returns the vocabulary, ``C = R'``, the
    block energies and ``Q``."""
    parsed = [parse_embedding(*spec.rsplit(":", 1)) for spec in specs]
    order = sorted(set.intersection(*(set(m.vocab) for m in parsed)))
    blocks = []
    for m in parsed:
        aligned = m.data[:, np.array([m.column_index(w) for w in order], dtype=np.intp)]
        centered = aligned - aligned.mean(axis=1, keepdims=True)
        blocks.append(centered / float(np.linalg.norm(centered)))
    q, r = np.linalg.qr(np.vstack(blocks).T)
    return order, np.ascontiguousarray(r.T), [float(np.vdot(b, b).real) for b in blocks], q


class TestOneBuffer:
    """``ranks`` and ``decompose`` align, preprocess and compress through one
    word-major buffer, with the bits of the route it replaced."""

    @pytest.fixture()
    def specs(self, tmp_path):
        # Three formats and dims; each file drops its own words, and the
        # glove file repeats a word, whose first occurrence is kept.
        model = make_planted((6, 8, 7), 60, 2, (1, 2, 1), noise_sigma=0.05, seed=12)
        vocab = [f"w{i:03d}" for i in range(60)]
        specs = []
        for i, (block, fmt) in enumerate(zip(model.blocks, ["glove-text", "word2vec-text", "auto"])):
            keep = [j for j in range(60) if j % 7 != i]
            path = tmp_path / f"in{i}.txt"
            write_embedding(EmbeddingMatrix([vocab[j] for j in keep], block[:, keep], f"in{i}"), path,
                            "word2vec-text" if fmt == "word2vec-text" else "glove-text")
            specs.append(f"{path}:{fmt}")
        with open(tmp_path / "in0.txt", "a", encoding="utf-8") as fh:
            fh.write("w001 " + " ".join(["9.5"] * 6) + "\n")
        return specs

    def test_same_bits_as_the_copying_route(self, specs, caplog):
        args = embedjive.cli.build_parser().parse_args(["ranks", *sum((["--input", s] for s in specs), [])])
        stack, _, n_dropped = embedjive.cli._input_stack(args)
        vocab, stacked, sq_norms, q = parent_route(specs)
        assert "skipped 1 duplicate words" in caplog.text
        assert n_dropped == [18, 18, 18] and len(vocab) == 33
        assert stack.vocab == vocab
        assert np.array_equal(stack.stacked, stacked)
        assert stack.sq_norms == sq_norms
        rows = np.random.default_rng(0).standard_normal((4, stacked.shape[1]))
        assert np.array_equal(stack.lift(rows), rows @ q.T)

    def test_no_copy_between_parse_and_compression(self, specs, tmp_path, monkeypatch, capsys):
        events, parsed = [], []
        parse, qr, vstack = embedjive.cli.parse_embedding, np.linalg.qr, np.vstack
        post_init, checked = EmbeddingMatrix.__post_init__, EmbeddingMatrix._checked.__func__

        def parse_spy(*args, **kwargs):
            matrix = parse(*args, **kwargs)
            parsed.append(weakref.ref(matrix))
            events.append("parse")
            return matrix

        def qr_spy(a, *args, **kwargs):
            events.append(("qr", a.shape, sum(ref() is not None for ref in parsed)))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(embedjive.cli, "parse_embedding", parse_spy)
        monkeypatch.setattr(np.linalg, "qr", qr_spy)
        monkeypatch.setattr(np, "vstack", lambda *a, **k: events.append("vstack") or vstack(*a, **k))
        monkeypatch.setattr(EmbeddingMatrix, "__post_init__", lambda self: events.append("matrix") or post_init(self))
        monkeypatch.setattr(EmbeddingMatrix, "_checked",
                            classmethod(lambda cls, *a: events.append("matrix") or checked(cls, *a)))
        argv = ["decompose", *sum((["--input", s] for s in specs), []), "--joint-rank", "2",
                "--individual-ranks", "1,2,1", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        capsys.readouterr()
        last_parse = max(i for i, event in enumerate(events) if event == "parse")
        compress = next(i for i, event in enumerate(events) if event[0] == "qr")
        assert last_parse < compress and events[last_parse + 1:compress] == []
        # The one n x P buffer, with no parsed matrix left alive.
        assert events[compress] == ("qr", (33, 21), 0)


class TestRunContract:
    def test_stop_reason_and_invariants_recorded(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_decompose(input_files, out) == 0
        assert capsys.readouterr().err == ""
        sidecar = json.loads((out / "model.json").read_text())
        assert sidecar["stop_reason"] == "tolerance"
        assert sidecar["invariants"]["max_residual_increase"] == 0.0
        assert 0.0 <= sidecar["invariants"]["orthogonality_deviation"] <= 1e-12

    def test_max_iter_warns(self, input_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_decompose(input_files, out, ["--max-iter", "1", "--epsilon", "1e-15"]) == 0
        assert "max_iter=1" in capsys.readouterr().err
        sidecar = json.loads((out / "model.json").read_text())
        assert sidecar["stop_reason"] == "max_iter" and sidecar["converged"] is False

    @pytest.fixture()
    def tampered_fit(self, monkeypatch):
        def install(tamper):
            fit = embedjive.cli.jive_fit

            def tampered(blocks, config):
                result = fit(blocks, config)
                tamper(result)
                return result

            monkeypatch.setattr(embedjive.cli, "jive_fit", tampered)

        return install

    def test_rising_residual_exits_3(self, input_files, tmp_path, capsys, tampered_fit):
        def tamper(result):
            result.residual_history.append(result.residual_history[-1] + 1e-6)
            result.step_history.append("plain")

        tampered_fit(tamper)
        out = tmp_path / "out"
        assert run_decompose(input_files, out) == 3
        assert "residual rose" in capsys.readouterr().err
        assert json.loads((out / "model.json").read_text())["invariants"]["max_residual_increase"] > 1e-10

    def test_orthogonality_violation_exits_3(self, input_files, tmp_path, capsys, tampered_fit):
        tampered_fit(lambda result: setattr(result, "orthogonality_deviation", 1e-6))
        assert run_decompose(input_files, tmp_path / "out") == 3
        assert "orthogonality deviation" in capsys.readouterr().err
        # There is no mode that skips the check.
        with pytest.raises(SystemExit) as exc:
            run_decompose(input_files, tmp_path / "unchecked", ["--no-orthogonality"])
        assert exc.value.code == 2

    def test_energy_split_violation_exits_3(self, input_files, tmp_path, capsys, tampered_fit):
        out = tmp_path / "clean"
        assert run_decompose(input_files, out) == 0
        assert json.loads((out / "model.json").read_text())["invariants"]["energy_split_deviation"] <= 1e-12

        def tamper(result):
            result.residual_sq[1] += 1e-6 * result.block_sq_norms[1]

        tampered_fit(tamper)
        out = tmp_path / "out"
        assert run_decompose(input_files, out) == 3
        assert "energy deviation" in capsys.readouterr().err
        assert json.loads((out / "model.json").read_text())["invariants"]["energy_split_deviation"] > 1e-8
        # There is no mode that skips the check.
        with pytest.raises(SystemExit) as exc:
            run_decompose(input_files, tmp_path / "unchecked", ["--no-orthogonality"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("Eigenvalues did not converge"),
                                       ChildProcessError("the worker process for null draws 1-10 was killed by signal 9"
                                                         " before returning its results")],
                             ids=["LinAlgError", "ChildProcessError"])
    def test_failed_solve_or_dead_worker_exits_3(self, input_files, tmp_path, capsys, monkeypatch, error):
        # LinAlgError is a ValueError and ChildProcessError an OSError, the
        # exceptions that mean a usage error.
        def select(*args, **kwargs):
            raise error

        monkeypatch.setattr(embedjive.cli, "select_joint_rank", select)
        assert main(["ranks", "--input", input_files[0], "--input", input_files[1]]) == 3
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_singular_covariance_exits_2(self, tmp_path, capsys):
        # One record per class leaves no within-class scatter: l2 0 is a usage error.
        embedding, corpus = tmp_path / "emb.txt", tmp_path / "corpus.tsv"
        embedding.write_text("a 1.0 0.0\nb 0.0 1.0\n", encoding="utf-8")
        corpus.write_text("0\ta\n1\tb\n", encoding="utf-8")
        argv = ["eval", "--input", str(embedding), "--train", str(corpus), "--test", str(corpus), "--l2", "0",
                "--out-dir", str(tmp_path / "eval")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: within-class covariance is singular; use l2 > 0\n"

    def test_invariant_messages_in_full(self, input_files, tmp_path, capsys, tampered_fit):
        def tamper(result):
            result.residual_history.append(result.residual_history[-1] + 1e-6)
            result.step_history.append("plain")
            result.orthogonality_deviation = 1e-6
            result.residual_sq[1] += 1e-6 * result.block_sq_norms[1]

        tampered_fit(tamper)
        out = tmp_path / "out"
        assert run_decompose(input_files, out) == 3
        invariants = json.loads((out / "model.json").read_text())["invariants"]
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: fit invariants violated:"
            f" residual rose by {invariants['max_residual_increase']:.3e} of the total energy (limit 1e-10);"
            " joint/individual orthogonality deviation 1.000e-06 (limit 1e-08);"
            f" joint + individual + residual energy deviation {invariants['energy_split_deviation']:.3e}"
            " of the block energy (limit 1e-08)"
        )


class TestRanks:
    def test_duplicated_input_selects_signal_rank(self, input_files, capsys):
        code = main(
            [
                "ranks",
                "--input", input_files[0],
                "--input", input_files[0],
                "--signal-ranks", "3,3",
                "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["joint_rank"] == 3

    def test_signal_rank_above_numerical_rank_exits_2(self, input_files, tmp_path, capsys):
        # Rows 3-5 repeat rows 0-2, so the block has rank 3.
        rows = np.random.default_rng(3).standard_normal((3, 40))
        path = tmp_path / "rank3.txt"
        write_embedding(EmbeddingMatrix([f"w{i:03d}" for i in range(40)], np.vstack([rows, rows]), "rank3"), path)
        argv = ["ranks", "--input", input_files[0], "--input", str(path), "--signal-ranks", "3,4"]
        assert main(argv) == 2
        assert "signal rank 4 exceeds the numerical rank 3 of block 1 (rank3)" in capsys.readouterr().err
        assert main(argv[:-1] + ["3,3"]) == 0

    def test_deterministic_stdout(self, input_files, capsys):
        argv = ["ranks", "--input", input_files[0], "--input", input_files[1], "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_dir_writes_manifest(self, input_files, tmp_path, capsys):
        out = tmp_path / "ranks"
        code = main(
            ["ranks", "--input", input_files[0], "--input", input_files[1], "--seed", "2", "--out-dir", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert (out / "ranks.json").exists()
        assert (out / "manifest.json").exists()


class TestOneRankPath:
    """The rank rules read one SVD per compressed block, and ``ranks`` and
    ``decompose`` write the same decision."""

    def test_one_svd_per_block(self, input_files, tmp_path, capsys, monkeypatch):
        # 6 + 8 block dims over 40 words: the compressed blocks are 6 x 14 and 8 x 14.
        block_shapes = {(6, 14), (8, 14)}
        shapes = []
        plain_svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return plain_svd(a, *args, **kwargs)

        class FitReached(Exception):
            pass

        def stop(*args, **kwargs):
            raise FitReached

        # The fit's own sweep-0 SVDs take block-shaped leftovers; the rank step ends where it begins.
        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(embedjive.cli, "jive_fit", stop)
        inputs = ["--input", input_files[0], "--input", input_files[1], "--seed", "2"]
        assert main(["ranks", *inputs]) == 0
        assert sorted(s for s in shapes if s in block_shapes) == [(6, 14), (8, 14)]
        shapes.clear()
        with pytest.raises(FitReached):
            main(["decompose", *inputs, "--out-dir", str(tmp_path / "model")])
        assert sorted(s for s in shapes if s in block_shapes) == [(6, 14), (8, 14)]
        capsys.readouterr()

    def test_ranks_json_is_the_model_rank_decision(self, input_files, tmp_path, capsys):
        flags = ["--input", input_files[0], "--input", input_files[1], "--seed", "5",
                 "--energy", "0.9", "--resamples", "30", "--quantile", "0.9"]
        assert main(["ranks", *flags, "--out-dir", str(tmp_path / "ranks")]) == 0
        assert main(["decompose", *flags, "--out-dir", str(tmp_path / "model")]) == 0
        capsys.readouterr()
        ranks = json.loads((tmp_path / "ranks" / "ranks.json").read_text())
        assert ranks.pop("block_names") == ["in0", "in1"]
        model = json.loads((tmp_path / "model" / "model.json").read_text())
        assert ranks == model["rank_decision"]
        assert (ranks["resamples"], ranks["quantile"], ranks["seed"]) == (30, 0.9, 5)

    def test_manifests_echo_the_rank_settings(self, input_files, tmp_path, capsys):
        flags = ["--input", input_files[0], "--input", input_files[1], "--seed", "5",
                 "--energy", "0.9", "--resamples", "30", "--quantile", "0.9"]
        assert main(["ranks", *flags, "--signal-ranks", "3,3", "--out-dir", str(tmp_path / "ranks")]) == 0
        assert main(["decompose", *flags, "--out-dir", str(tmp_path / "model")]) == 0
        assert run_decompose(input_files, tmp_path / "pinned") == 0
        capsys.readouterr()
        settings = {"energy": 0.9, "resamples": 30, "quantile": 0.9, "seed": 5}
        ranks = json.loads((tmp_path / "ranks" / "manifest.json").read_text())["config"]
        assert ranks == {"signal_ranks": [3, 3], **settings}
        model = json.loads((tmp_path / "model" / "manifest.json").read_text())["config"]
        assert {key: model[key] for key in settings} == settings
        pinned = json.loads((tmp_path / "pinned" / "manifest.json").read_text())["config"]
        assert {key: pinned[key] for key in settings} == {"energy": 0.95, "resamples": 100, "quantile": 0.95, "seed": 3}
        assert set(pinned) == {"joint_rank", "individual_ranks", "epsilon", "max_iter", *settings}


class TestCompose:
    @pytest.fixture()
    def model_dir(self, input_files, tmp_path, capsys):
        out = tmp_path / "model"
        run_decompose(input_files, out)
        capsys.readouterr()
        return out

    def test_all_variants(self, model_dir, tmp_path, capsys):
        out = tmp_path / "composed"
        code = main(["compose", "--model", str(model_dir), "--compositions", "all", "--out-dir", str(out)])
        assert code == 0
        capsys.readouterr()
        expected_rows = {
            "joint.txt": 2,
            "ind0.txt": 1,
            "ind1.txt": 1,
            "joint+ind0.txt": 3,
            "joint+ind1.txt": 3,
            "ind0+ind1.txt": 2,
            "joint+ind0+ind1.txt": 4,
        }
        for name, rows in expected_rows.items():
            emb = parse_embedding(out / name, "glove-text")
            assert emb.dim == rows, name

    def test_unknown_composition(self, model_dir, tmp_path, capsys):
        # A part has one spelling: ind00 and ind01 name no part.
        out = tmp_path / "x"
        for compositions, unknown in [("ind9", "ind9"), ("ind0+ind00,ind01", "ind00")]:
            argv = ["compose", "--model", str(model_dir), "--compositions", compositions, "--out-dir", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"unknown composition part {unknown!r}" in err
            assert "valid parts" in err and "joint" in err and "ind0" in err
            assert not out.exists()

    def test_missing_model(self, tmp_path, capsys):
        code = main(["compose", "--model", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("blocks", [0, 1])
    def test_model_of_fewer_than_two_blocks_is_refused(self, model_dir, tmp_path, capsys, blocks):
        # Every per-block list cut alike, so only the block count is wrong.
        record = json.loads((model_dir / "model.json").read_text())
        for key in ("block_names", "individual_files", "individual_ranks", "block_sq_norms", "joint_sq",
                    "individual_sq", "residual_sq"):
            record[key] = record[key][:blocks]
        (model_dir / "model.json").write_text(json.dumps(record))
        named = f"model.json: 'block_names' must list at least 2 blocks, not {blocks}"
        for compositions in ("joint", "joint+ind0"):
            out = tmp_path / "x"
            assert main(["compose", "--model", str(model_dir), "--compositions", compositions,
                         "--out-dir", str(out)]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()
        for fmt in ("tsv", "json"):
            assert main(["report", "--model", str(model_dir), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert named in captured.err
            assert captured.out == ""


    @pytest.mark.parametrize(
        "tamper, named",
        [
            (lambda d: (d / "ind_0.txt").write_bytes((d / "joint.txt").read_bytes()), "ind_0.txt"),
            (lambda d: (d / "ind_1.txt").write_text("".join((d / "ind_1.txt").read_text().splitlines(True)[:-1])),
             "ind_1.txt"),
            (lambda d: _set_key(d, "individual_files", ["ind_0.txt"]), "model.json"),
            (lambda d: (d / "model.json").write_text("[]"), "model.json"),
            (lambda d: _set_value(d / "ind_0.txt", 7, "nan"), "ind_0.txt: non-finite value nan for word 'w007'"),
            (lambda d: _set_value(d / "joint.txt", 0, "-inf"), "joint.txt: non-finite value -inf for word 'w000'"),
            (lambda d: _drop_key(d, "n_words"), "model.json is missing 'n_words'"),
            (lambda d: _drop_key(d, "individual_files"), "model.json is missing 'individual_files'"),
            (lambda d: (d / "model.json").write_text("{not json"), "model.json: invalid JSON"),
            # A model directory written before model.json recorded the energies.
            (lambda d: _drop_key(d, "joint_sq", "individual_sq", "residual_sq", "package_version"),
             "model.json is missing 'package_version', 'joint_sq', 'individual_sq', 'residual_sq'"),
            *[(lambda d, k=key, v=value: _set_key(d, k, v), f"model.json: {key!r} must be a")
              for _, key, value in MODEL_MUTATIONS],
            # Values of the right kind that break the energy split decompose enforces.
            (lambda d: _set_key(d, "joint_sq", [2.0, 0.1]),
             "model.json: 'joint_sq' + 'individual_sq' + 'residual_sq' of block 0 ('in0')"),
            (lambda d: _set_key(d, "block_sq_norms", [0.0, 1.0]),
             "model.json: 'block_sq_norms' must be positive; block 0 ('in0') has 0.0"),
        ],
        ids=["rank", "word-count", "file-per-block", "not-an-object", "nan", "inf", "no-n-words", "no-individual-files",
             "model-not-json", "no-energies", *[name for name, _, _ in MODEL_MUTATIONS], "joint_sq-split",
             "block_sq_norms-zero"],
    )
    def test_factor_files_checked_against_model(self, model_dir, tmp_path, capsys, tamper, named):
        tamper(model_dir)
        out = tmp_path / "x"
        assert main(["compose", "--model", str(model_dir), "--compositions", "ind0", "--out-dir", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not (out / "ind0.txt").exists()
        for fmt in ("tsv", "json"):
            assert main(["report", "--model", str(model_dir), "--format", fmt]) == 2
            assert named in capsys.readouterr().err
            assert main(["report", "--model", str(model_dir), "--format", fmt, "--out", str(tmp_path / "r")]) == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    # model.json names each part's factor file by the part: joint.txt, and
    # ind_<i>.txt for block i.  The individual cases name files that hold
    # numbers of the recorded shape, so only the name rule refuses them.
    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("individual_files", lambda d: ["../elsewhere/secret.txt", "ind_1.txt"], ["ind_0.txt", "ind_1.txt"]),
            ("individual_files", lambda d: [str(d.parent / "elsewhere" / "secret.txt"), "ind_1.txt"],
             ["ind_0.txt", "ind_1.txt"]),
            ("individual_files", lambda d: ["ind_0.txt", "ind_0.txt"], ["ind_0.txt", "ind_1.txt"]),
            ("individual_files", lambda d: ["ind_1.txt", "ind_0.txt"], ["ind_0.txt", "ind_1.txt"]),
            ("joint_file", lambda d: "ind_0.txt", "joint.txt"),
            ("joint_file", lambda d: None, "joint.txt"),
        ],
        ids=["parent-path", "absolute-path", "one-file-for-two-parts", "swapped", "joint-misnamed", "joint-null"],
    )
    def test_factor_file_names_follow_the_parts(self, model_dir, tmp_path, capsys, key, value, expected):
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "secret.txt").write_bytes((model_dir / "ind_0.txt").read_bytes())
        _set_key(model_dir, key, value(model_dir))
        before = {path.name: path.read_bytes() for path in model_dir.iterdir()}
        named = f"model.json: {key!r} must be {json.dumps(expected)}"
        out = tmp_path / "x"
        assert main(["compose", "--model", str(model_dir), "--out-dir", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        for fmt in ("tsv", "json"):
            assert main(["report", "--model", str(model_dir), "--format", fmt]) == 2
            assert named in capsys.readouterr().err
            assert main(["report", "--model", str(model_dir), "--format", fmt, "--out", str(tmp_path / "r")]) == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / "r").exists()
        assert {path.name: path.read_bytes() for path in model_dir.iterdir()} == before

    # Only decompose writes into a directory holding a model.json.  Each case is
    # a command line that succeeds into a fresh --out-dir, and the spelling of
    # the model directory given as its --out-dir instead.
    @pytest.mark.parametrize(
        "argv, suffix",
        [
            (lambda d: ["compose", "--model", d.model, "--compositions", "joint", "--format", "word2vec-text"], ""),
            (lambda d: ["compose", "--model", d.model, "--compositions", "joint", "--format", "word2vec-text"], "/."),
            (lambda d: ["ranks", "--input", d.inputs[0], "--input", d.inputs[1], "--seed", "2"], ""),
            (lambda d: ["eval", "--input", d.embedding, "--train", d.corpus, "--test", d.corpus], ""),
            (lambda d: ["compose", "--model", d.other, "--compositions", "joint"], ""),
        ],
        ids=["", "/.", "ranks", "eval", "compose-into-another-model"],
    )
    def test_out_dir_may_not_be_the_model(self, model_dir, input_files, tmp_path, capsys, argv, suffix):
        other = tmp_path / "other"
        assert run_decompose(input_files, other, ["--joint-rank", "1", "--individual-ranks", "1,2"]) == 0
        corpus, embedding = separable_corpus(seed=23)
        write_embedding(embedding, tmp_path / "emb.txt")
        write_corpus_tsv(corpus, tmp_path / "corpus.tsv")
        argv = argv(SimpleNamespace(model=str(model_dir), other=str(other), inputs=input_files,
                                    embedding=str(tmp_path / "emb.txt"), corpus=str(tmp_path / "corpus.tsv")))
        assert main([*argv, "--out-dir", str(tmp_path / "fresh")]) == 0
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in model_dir.iterdir()}
        assert main([*argv, "--out-dir", str(model_dir) + suffix]) == 2
        assert "is a model directory (it holds model.json)" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in model_dir.iterdir()} == before

    def test_out_dir_of_another_command_refused(self, model_dir, input_files, tmp_path, capsys):
        corpus, embedding = separable_corpus(seed=23)
        write_embedding(embedding, tmp_path / "emb.txt")
        write_corpus_tsv(corpus, tmp_path / "corpus.tsv")
        composed, evals = tmp_path / "composed", tmp_path / "evals"
        eval_argv = ["eval", "--input", str(tmp_path / "emb.txt"), "--train", str(tmp_path / "corpus.tsv"),
                     "--test", str(tmp_path / "corpus.tsv"), "--out-dir"]
        assert main(["compose", "--model", str(model_dir), "--compositions", "joint", "--out-dir", str(composed)]) == 0
        # eval reruns into its own directory, appending to results.jsonl.
        assert main([*eval_argv, str(evals)]) == 0 and main([*eval_argv, str(evals)]) == 0
        assert len((evals / "results.jsonl").read_text().splitlines()) == 2
        junk = tmp_path / "junk"
        junk.mkdir()
        (junk / "manifest.json").write_text("[]")
        capsys.readouterr()
        for argv, out, owner in [
            ([*eval_argv, str(composed)], composed, "compose"),
            ([*eval_argv, str(junk)], junk, None),
            (["ranks", "--input", input_files[0], "--input", input_files[1], "--out-dir", str(evals)], evals, "eval"),
            (["decompose", "--input", input_files[0], "--input", input_files[1], "--joint-rank", "1",
              "--individual-ranks", "1,2", "--out-dir", str(evals)], evals, "eval"),
        ]:
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            assert main(argv) == 2
            assert f"holds a manifest.json written by {owner!r}, not {argv[0]}" in capsys.readouterr().err
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_repeated_composition_rejected(self, model_dir, tmp_path, capsys):
        out = tmp_path / "x"
        for compositions, named in [
            ("joint,ind0, joint", "repeat 'joint'"),
            ("joint,,ind0", "--compositions has an empty entry in 'joint,,ind0'"),
        ]:
            argv = ["compose", "--model", str(model_dir), "--compositions", compositions, "--out-dir", str(out)]
            assert main(argv) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("fmt", ["glove-text", "word2vec-text"])
    def test_splice_matches_numeric_compose(self, model_dir, tmp_path, capsys, fmt):
        out, reference = tmp_path / "composed", tmp_path / "reference"
        assert main(["compose", "--model", str(model_dir), "--format", fmt, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        factors = [parse_embedding(model_dir / f"{name}.txt", "glove-text") for name in ("joint", "ind_0", "ind_1")]
        result = SimpleNamespace(joint_basis=factors[0].data, individual_scores=[f.data for f in factors[1:]])
        reference.mkdir()
        specs = standard_compositions(2)
        assert len(specs) == 7
        for spec in specs:
            composed = compose(result, spec, factors[0].vocab)
            write_embedding(composed, reference / f"{spec.name}.txt", fmt)
            spliced = out / f"{spec.name}.txt"
            assert spliced.read_bytes() == (reference / f"{spec.name}.txt").read_bytes(), spec.name
            parsed = parse_embedding(spliced, "auto")
            assert (parsed.n_words, parsed.dim) == (40, composed.dim)
            if fmt == "word2vec-text":
                assert spliced.read_text().splitlines()[0] == f"40 {composed.dim}"

    def test_corrupted_factor_token_exits_2_naming_file_and_line(self, model_dir, tmp_path, capsys):
        _set_value(model_dir / "ind_1.txt", 5, "0.1x")
        out = tmp_path / "composed"
        assert main(["compose", "--model", str(model_dir), "--out-dir", str(out)]) == 2
        assert f"{model_dir / 'ind_1.txt'}: line 6: non-numeric value '0.1x'" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_0_parts(self, input_files, tmp_path, capsys):
        model_dir, out = tmp_path / "model", tmp_path / "composed"
        assert run_decompose(input_files, model_dir, ["--individual-ranks", "1,0"]) == 0
        assert json.loads((model_dir / "model.json").read_text())["individual_files"] == ["ind_0.txt", None]
        capsys.readouterr()
        assert main(["compose", "--model", str(model_dir), "--compositions", "ind1", "--out-dir", str(out)]) == 2
        assert "empty composition" in capsys.readouterr().err
        argv = ["compose", "--model", str(model_dir), "--compositions", "joint,joint+ind1", "--out-dir", str(out)]
        assert main(argv) == 0
        assert (out / "joint+ind1.txt").read_bytes() == (out / "joint.txt").read_bytes()


@pytest.fixture()
def eval_files(tmp_path):
    """Three embeddings of different dims and vocabularies, and the train and
    test corpora: the inputs of one ``eval``."""
    train, test, clean, noisy = clean_noisy_pair(5)
    partial = EmbeddingMatrix(vocab=noisy.vocab[60:], data=noisy.data[:, 60:], name="partial")
    paths = []
    for embedding in (clean, noisy, partial):
        paths.append(tmp_path / f"{embedding.name}.txt")
        write_embedding(embedding, paths[-1])
    corpus_paths = [tmp_path / "train.tsv", tmp_path / "test.tsv"]
    write_corpus_tsv(train, corpus_paths[0])
    write_corpus_tsv(test, corpus_paths[1])
    return paths, corpus_paths


def run_eval(inputs, corpus_paths, out_dir):
    argv = ["eval", *sum((["--input", str(p)] for p in inputs), []), "--train", str(corpus_paths[0]),
            "--test", str(corpus_paths[1]), "--out-dir", str(out_dir)]
    return main(argv)


def on_cpus(monkeypatch, cpus):
    """Make the CLI see ``cpus`` CPUs and fork for file jobs of any size;
    returns the list to which the pid of every child it forks is appended."""
    monkeypatch.setattr(embedjive.jobs, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(embedjive.cli, "_FORKED_BYTES", 0)
    return counting_forks(monkeypatch)


def without_cpus(manifest: bytes) -> dict:
    """A manifest's content apart from the CPU count it records."""
    content = json.loads(manifest)
    del content["blas"]["cpus"]
    return content


class TestEval:
    def test_separable_corpus_row(self, tmp_path, capsys):
        corpus, embedding = separable_corpus(seed=23)
        emb_path = tmp_path / "emb.txt"
        write_embedding(embedding, emb_path)
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_tsv(corpus, corpus_path)
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--input", str(emb_path),
                "--train", str(corpus_path),
                "--test", str(corpus_path),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        row = ('{"accuracy": 1.0, "config": {"l2": 0.0001}, "embedding": "emb", "precision": [1.0, 1.0],'
               ' "recall": [1.0, 1.0]}')
        assert capsys.readouterr().out == row + "\n"
        assert (out / "results.jsonl").read_text() == row + "\n"

    def test_results_append(self, tmp_path, capsys):
        corpus, embedding = separable_corpus(seed=24)
        emb_path = tmp_path / "emb.txt"
        write_embedding(embedding, emb_path)
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_tsv(corpus, corpus_path)
        out = tmp_path / "eval"
        argv = [
            "eval", "--input", str(emb_path), "--train", str(corpus_path),
            "--test", str(corpus_path), "--out-dir", str(out),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert len((out / "results.jsonl").read_text().strip().splitlines()) == 2

    def test_bad_input_exits_2_before_results(self, tmp_path, capsys):
        corpus, embedding = separable_corpus(seed=25)
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        write_embedding(embedding, good)
        write_embedding(embedding, bad)
        _set_value(bad, 2, "1_0")
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_tsv(corpus, corpus_path)
        out = tmp_path / "eval"
        argv = ["eval", "--input", str(good), "--input", str(bad), "--train", str(corpus_path),
                "--test", str(corpus_path), "--out-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{bad}: line 3: non-numeric value '1_0'" in captured.err
        assert captured.out == ""
        assert not (out / "results.jsonl").exists()

    def test_embeddings_evaluated_together_match_alone(self, eval_files, tmp_path, capsys):
        # Different dims and vocabularies, so a lookup or buffer carried from
        # one embedding to the next would change a later row.
        paths, corpus_paths = eval_files

        def run(out_name, inputs):
            assert run_eval(inputs, corpus_paths, tmp_path / out_name) == 0
            return (tmp_path / out_name / "results.jsonl").read_text().splitlines()

        together = run("all", paths)
        capsys.readouterr()
        assert len(together) == 3
        assert together == run("first", paths[:1]) + run("second", paths[1:2]) + run("third", paths[2:])

    def test_rows_do_not_depend_on_the_worker_count(self, eval_files, tmp_path, capsys, monkeypatch):
        paths, corpus_paths = eval_files
        outputs = []
        # One CPU runs the jobs inline; 8 CPUs fork one child per input beside this process's.
        for cpus, children in [(1, 0), (2, 1), (8, 2)]:
            forked = on_cpus(monkeypatch, cpus)
            out_dir = tmp_path / f"cpus{cpus}"
            assert run_eval(paths, corpus_paths, out_dir) == 0
            assert len(forked) == children
            assert_no_child_left()
            manifest = (out_dir / "manifest.json").read_bytes()
            assert json.loads(manifest)["blas"]["cpus"] == cpus
            outputs.append((*capsys.readouterr(), (out_dir / "results.jsonl").read_bytes(), without_cpus(manifest)))
        assert len(outputs[0][0].splitlines()) == 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("where", ["first", "middle", "twice"])
    def test_first_refused_input_is_reported(self, eval_files, tmp_path, capsys, monkeypatch, cpus, where):
        (clean, noisy, partial), corpus_paths = eval_files
        bad, worse = tmp_path / "bad.txt", tmp_path / "worse.txt"
        bad.write_text(clean.read_text())
        _set_value(bad, 2, "1_0")
        # The larger refused input starts first on a pool, and still is not
        # the one reported.
        worse.write_text(noisy.read_text())
        _set_value(worse, 0, "nan")
        inputs = {"first": [bad, clean, partial], "middle": [clean, bad, partial],
                  "twice": [clean, bad, partial, worse]}[where]
        forked = on_cpus(monkeypatch, cpus)
        out_dir = tmp_path / "eval"
        assert run_eval(inputs, corpus_paths, out_dir) == 2
        captured = capsys.readouterr()
        assert f"{bad}: line 3: non-numeric value '1_0'" in captured.err
        assert str(worse) not in captured.err
        assert captured.out == ""
        assert not out_dir.exists()
        assert len(forked) == cpus - 1
        assert_no_child_left()

    def test_inputs_with_one_name_are_refused(self, eval_files, tmp_path, capsys):
        (clean, noisy, _), corpus_paths = eval_files
        first, second = tmp_path / "a" / "joint.txt", tmp_path / "b" / "joint.txt"
        for source, path in [(clean, first), (noisy, second)]:
            path.parent.mkdir()
            path.write_text(source.read_text())
        out_dir = tmp_path / "eval"
        assert run_eval([first, second], corpus_paths, out_dir) == 2
        captured = capsys.readouterr()
        assert f"--input {first} and --input {second} are both named 'joint'" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_warnings_reach_stderr_in_input_order(self, eval_files, tmp_path, capsys, monkeypatch, cpus):
        (clean, noisy, _), corpus_paths = eval_files
        repeated, headed = tmp_path / "repeated.txt", tmp_path / "headed.txt"
        lines = clean.read_text().splitlines(True)
        repeated.write_text("".join(lines + lines[:2]))
        headed.write_text("999 16\n" + noisy.read_text())
        expected = {repeated: f"{repeated}: skipped 2 duplicate words", headed: f"{headed}: header declares 999 words"}
        forked = on_cpus(monkeypatch, cpus)
        handler = logging.StreamHandler(sys.stderr)
        logging.getLogger("embedjive").addHandler(handler)
        try:
            for order in ([repeated, headed], [headed, repeated]):
                assert run_eval(order, corpus_paths, tmp_path / "eval") == 0
                err = capsys.readouterr().err
                assert [err.count(expected[path]) for path in order] == [1, 1]
                assert err.index(expected[order[0]]) < err.index(expected[order[1]])
        finally:
            logging.getLogger("embedjive").removeHandler(handler)
        assert len(forked) == 2 * (cpus - 1)
        assert_no_child_left()


class TestForkedMap:
    """``decompose`` writes one factor file per job on ``jobs._forked_map``,
    which ``eval`` and the joint-rank draws share; ``compose`` parses the
    factor files in this process."""

    def test_decompose_and_compose_do_not_depend_on_the_cpu_count(self, input_files, tmp_path, capsys, monkeypatch):
        model_dir, composed = tmp_path / "model", tmp_path / "composed"
        compose_argv = ["compose", "--model", str(model_dir), "--format", "word2vec-text", "--out-dir", str(composed)]
        runs = []
        # Three factor files: 8 CPUs fork one writer per file beside this process.
        for cpus, children in [(1, 0), (2, 1), (8, 2)]:
            for path in (model_dir, composed):
                shutil.rmtree(path, ignore_errors=True)
            forked = on_cpus(monkeypatch, cpus)
            assert run_decompose(input_files, model_dir) == 0
            decomposed = capsys.readouterr()
            assert main(compose_argv) == 0
            assert len(forked) == children
            assert_no_child_left()
            files = {path.relative_to(tmp_path): path.read_bytes() for path in sorted(tmp_path.glob("*/*"))}
            manifests = {path: without_cpus(files.pop(path)) for path in list(files) if path.name == "manifest.json"}
            runs.append((decomposed, capsys.readouterr(), files, manifests))
        assert len(runs[0][2]) == 13  # 3 factor files, report, fit log and model record; 7 compositions
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("blocked, named", [(["ind_1.txt"], "ind_1.txt"), (["ind_1.txt", "ind_0.txt"], "ind_0.txt"),
                                                (["ind_0.txt", "joint.txt"], "joint.txt")])
    def test_failing_write_exits_2_naming_the_first_file(self, input_files, tmp_path, capsys, monkeypatch, cpus,
                                                          blocked, named):
        out = tmp_path / "model"
        for name in blocked:
            (out / name).mkdir(parents=True)
        forked = on_cpus(monkeypatch, cpus)
        assert run_decompose(input_files, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{out / named}'\n"
        assert not (out / "model.json").exists()
        assert len(forked) == min(cpus, 3) - 1
        assert_no_child_left()

    def test_killed_child_is_an_error(self, monkeypatch):
        forked = on_cpus(monkeypatch, 3)
        parent = os.getpid()

        def job(item):
            if item == "b" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        with deadline(60), pytest.raises(ChildProcessError) as raised:
            embedjive.jobs._forked_map(job, ["a", "b", "c"], [3, 2, 1], 0)
        assert str(raised.value) == "the worker process for b was killed by signal 9 before returning its results"
        assert len(forked) == 2
        assert_no_child_left()

    def test_interrupt_reaps_the_children(self, monkeypatch):
        forked = on_cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(item):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # until killed

        with deadline(60), pytest.raises(KeyboardInterrupt):
            embedjive.jobs._forked_map(job, ["a", "b"], [1, 1], 0)
        assert len(forked) == 1
        assert_no_child_left()

    def test_child_blocks_sigint(self, monkeypatch):
        # A Ctrl-C reaches every process of the group; in a child it stays
        # pending until os._exit, so the child's jobs still return.
        forked = on_cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(item):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return item, signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])

        with deadline(60):
            assert embedjive.jobs._forked_map(job, ["a", "b"], [2, 1], 0) == [("a", False), ("b", True)]
        assert len(forked) == 1
        assert_no_child_left()

    def test_results_and_errors_come_back_in_item_order(self, monkeypatch):
        on_cpus(monkeypatch, 8)

        def job(item):
            if item.startswith("bad"):
                raise ValueError(item)
            return item * 2

        items = ["a", "bb", "ccc", "d"]
        assert embedjive.jobs._forked_map(job, items, [1, 4, 2, 3], 0) == ["aa", "bbbb", "cccccc", "dd"]
        with pytest.raises(ValueError, match="^bad1$"):
            embedjive.jobs._forked_map(job, ["a", "bad1", "bad2"], [1, 1, 9], 0)
        assert_no_child_left()

    def test_forked_eval_loads_no_process_pool(self, eval_files, tmp_path):
        paths, corpus_paths = eval_files
        argv = ["eval", *sum((["--input", str(p)] for p in paths), []), "--train", str(corpus_paths[0]),
                "--test", str(corpus_paths[1]), "--out-dir", str(tmp_path / "eval")]
        code = ("import os, sys, embedjive.cli as cli\n"
                "cli.jobs._cpu_count, cli._FORKED_BYTES, fork, forks = (lambda: 3), 0, os.fork, []\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                f"assert cli.main({argv!r}) == 0\n"
                "print(len(forks), sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "2 []"


class TestReport:
    def test_tsv_to_stdout(self, input_files, tmp_path, capsys):
        model_dir = tmp_path / "model"
        run_decompose(input_files, model_dir)
        capsys.readouterr()
        assert main(["report", "--model", str(model_dir), "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"

    def test_json_matches_decompose_report(self, input_files, tmp_path, capsys):
        model_dir = tmp_path / "model"
        run_decompose(input_files, model_dir)
        capsys.readouterr()
        out_file = tmp_path / "report.json"
        assert main(["report", "--model", str(model_dir), "--format", "json", "--out", str(out_file)]) == 0
        stored = json.loads((model_dir / "report.json").read_text())
        emitted = json.loads(out_file.read_text())
        assert emitted["blocks"] == stored["blocks"]


    def test_report_re_emits_report_json(self, input_files, tmp_path, capsys):
        model_dir = tmp_path / "model"
        run_decompose(input_files, model_dir)
        table = capsys.readouterr().out.split("converged=")[0]
        assert main(["report", "--model", str(model_dir), "--format", "json"]) == 0
        assert capsys.readouterr().out == (model_dir / "report.json").read_text()
        out_file = tmp_path / "report.json"
        assert main(["report", "--model", str(model_dir), "--format", "json", "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == (model_dir / "report.json").read_bytes()
        assert main(["report", "--model", str(model_dir), "--format", "tsv"]) == 0
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize("target", ["model.json", "joint.txt", "./ind_0.txt"])
    def test_out_may_not_be_in_the_model(self, input_files, tmp_path, capsys, target):
        model_dir = tmp_path / "model"
        run_decompose(input_files, model_dir)
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in model_dir.iterdir()}
        out = str(model_dir / target)
        assert main(["report", "--model", str(model_dir), "--out", out]) == 2
        assert f"--out {out} is in the model directory" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in model_dir.iterdir()} == before
        assert main(["report", "--model", str(model_dir)]) == 0

    def test_out_may_not_be_in_another_commands_directory(self, input_files, tmp_path, capsys):
        # --out is held to the --out-dir rule: not into another model, nor
        # into a directory whose manifest.json another command wrote.
        model_a, model_b, composed = tmp_path / "a", tmp_path / "b", tmp_path / "composed"
        assert run_decompose(input_files, model_a) == 0
        assert run_decompose(input_files, model_b, ["--joint-rank", "1", "--individual-ranks", "1,2"]) == 0
        assert main(["compose", "--model", str(model_a), "--compositions", "joint", "--out-dir", str(composed)]) == 0
        capsys.readouterr()
        for target, named in [
            (model_b / "model.json", "is in the model directory (it holds model.json)"),
            (composed / "manifest.json", "is in the directory that holds a manifest.json written by 'compose'"),
            (composed / "report.tsv", "is in the directory that holds a manifest.json written by 'compose'"),
        ]:
            before = {path.name: path.read_bytes() for path in target.parent.iterdir()}
            for fmt in ("tsv", "json"):
                assert main(["report", "--model", str(model_a), "--format", fmt, "--out", str(target)]) == 2
                assert f"--out {target} {named}" in capsys.readouterr().err
                assert {path.name: path.read_bytes() for path in target.parent.iterdir()} == before
        assert main(["compose", "--model", str(model_b), "--out-dir", str(tmp_path / "composed_b")]) == 0

    def test_report_ignores_report_json(self, input_files, tmp_path, capsys):
        # report derives both formats from model.json; report.json is never read back.
        model_dir = tmp_path / "model"
        run_decompose(input_files, model_dir)
        table = capsys.readouterr().out.split("converged=")[0]
        path = model_dir / "report.json"
        original = path.read_text()
        report = json.loads(original)
        tampered = report | {"joint_rank": 99, "blocks": [report["blocks"][0] | {"name": "x"}, *report["blocks"][1:]]}
        for edit in (lambda: path.write_text(json.dumps(tampered)), path.unlink):
            edit()
            assert main(["report", "--model", str(model_dir), "--format", "json"]) == 0
            assert capsys.readouterr().out == original
            assert main(["report", "--model", str(model_dir), "--format", "tsv"]) == 0
            assert capsys.readouterr().out == table


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, input_files, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"joint_rank": "2", "individual_ranks": "1,1", "seed": 8}))
        out = tmp_path / "out"
        code = main(
            [
                "--config", str(config_path),
                "decompose",
                "--input", input_files[0],
                "--input", input_files[1],
                "--seed", "9",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["joint_rank"] == 2
        assert manifest["config"]["seed"] == 9

    def test_config_values_reach_the_subcommand(self, input_files, tmp_path, capsys):
        # Auto-selection picks joint rank 2 on these inputs, so a config
        # value of 1 shows whether the file was applied at all.
        auto = tmp_path / "auto"
        assert main(["decompose", "--input", input_files[0], "--input", input_files[1],
                     "--out-dir", str(auto)]) == 0
        assert json.loads((auto / "model.json").read_text())["joint_rank"] == 2
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"epsilon": 0.5, "joint_rank": "1", "max-iter": "7"}))
        out = tmp_path / "out"
        code = main(
            [
                "--config", str(config_path),
                "decompose",
                "--input", input_files[0],
                "--input", input_files[1],
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["joint_rank"] == 1
        assert config["epsilon"] == 0.5
        assert config["max_iter"] == 7
        assert json.loads((out / "model.json").read_text())["rank_decision"] is None

    @pytest.mark.parametrize(
        "command, overrides, named",
        [
            # epsilon belongs to decompose, not to ranks.
            ("ranks", {"seed": 4, "epsilon": 0.5, "jointrank": "1"}, ["epsilon", "jointrank"]),
            # decompose has a single, orthogonal fit mode.
            ("decompose", {"no_orthogonality": True}, ["--no-orthogonality"]),
            # There is one joint-rank rule.
            ("ranks", {"rank_mode": "null"}, ["--rank-mode"]),
            ("decompose", {"rank-mode": "wedin"}, ["--rank-mode"]),
            # A value is checked as the same flag on the command line would be.
            ("decompose", {"epsilon": None}, ["--epsilon", "null"]),
            ("ranks", {"seed": 1.5}, ["--seed", "1.5"]),
            ("decompose", {"max_iter": 2.5}, ["--max-iter", "invalid int value: '2.5'"]),
            # The fit settings are checked by JiveConfig.validate, before anything is written.
            ("decompose", {"joint_rank": "2", "individual_ranks": "1,1", "max_iter": 0}, ["max_iter must be >= 1, got 0"]),
            # A rank list is checked as the command runs, naming its flag.
            ("decompose", {"joint_rank": "1", "individual_ranks": "1,,2"}, ["--individual-ranks has an empty entry"]),
            # A key is a full flag name, never an abbreviation of one.
            ("decompose", {"out": "elsewhere"}, ["--out=elsewhere"]),
            ("decompose", {"joint": 2}, ["--joint=2"]),
            # Rank-selection settings are checked even where pinned ranks leave them unused.
            ("decompose", {"joint_rank": "2", "individual_ranks": "1,1", "energy": 5}, ["energy fraction", "5.0"]),
            ("decompose", {"joint_rank": "2", "individual_ranks": "1,1", "quantile": 7}, ["quantile", "7.0"]),
            ("decompose", {"joint_rank": "2", "individual_ranks": "1,1", "resamples": 5}, ["resamples", "5"]),
            ("ranks", {"signal_ranks": "3,3", "energy": 5}, ["energy fraction", "5.0"]),
        ],
        ids=[
            "ranks", "decompose-no-orthogonality", "ranks-rank-mode", "decompose-rank-mode",
            "epsilon-null", "seed-float", "max-iter-float", "max-iter-0", "empty-rank-entry", "out-abbreviation",
            "joint-abbreviation", "pinned-energy", "pinned-quantile", "pinned-resamples", "ranks-pinned-energy",
        ],
    )
    def test_unknown_config_key_rejected(self, input_files, tmp_path, capsys, command, overrides, named):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(overrides))
        argv = ["--config", str(config_path), command, "--input", input_files[0], "--input", input_files[1]]
        assert exit_code([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_config_supplies_required_flags(self, input_files, tmp_path, capsys, form):
        def run(command, overrides, *flags):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(overrides))
            config = ["--config", str(path)] if form == "separate" else [f"--config={path}"]
            return main([*config, command, *flags])

        model, composed = tmp_path / "model", tmp_path / "composed"
        pinned = {"joint_rank": "2", "individual_ranks": "1,1", "out_dir": str(model)}
        assert run("decompose", pinned, "--input", input_files[0], "--input", input_files[1]) == 0
        assert run("compose", {"model": str(model), "out_dir": str(composed)}) == 0
        capsys.readouterr()
        assert (model / "model.json").is_file() and (composed / "joint+ind0+ind1.txt").is_file()

    def test_config_matches_command_line(self, input_files, tmp_path, capsys):
        flags = {
            "joint_rank": "auto", "individual_ranks": "auto", "epsilon": 1e-8, "max_iter": 300, "seed": 4,
            "energy": 0.9, "resamples": 20, "quantile": 0.9,
        }
        argv = sum(([f"--{k.replace('_', '-')}", str(v)] for k, v in flags.items()), [])
        outs = [tmp_path / name for name in ("flags", "config", "mixed")]
        assert main(["decompose", "--input", input_files[0], "--input", input_files[1], *argv,
                     "--out-dir", str(outs[0])]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"input": input_files, **flags, "out_dir": str(outs[1])}))
        assert main(["--config", str(config_path), "decompose"]) == 0
        # Explicit flags win, and explicit inputs follow the config's.
        config_path.write_text(json.dumps({"input": input_files[:1], **flags, "seed": 5, "out_dir": str(tmp_path / "unused")}))
        assert main(["--config", str(config_path), "decompose", "--input", input_files[1], "--seed", "4",
                     "--out-dir", str(outs[2])]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in outs[0].iterdir())
        assert json.loads((outs[0] / "model.json").read_text())["rank_decision"]["resamples"] == 20
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            assert all((out / n).read_bytes() == (outs[0] / n).read_bytes() for n in names), out.name
        assert not (tmp_path / "unused").exists()
