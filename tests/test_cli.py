import json

import pytest

from corpus_util import separable_corpus, write_corpus_tsv
from embedjive.cli import main
from embedjive.embed_io import EmbeddingMatrix, parse_embedding, write_embedding
from embedjive.synthetic import make_planted


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
        before = [open(p, "rb").read() for p in input_files]
        assert run_decompose(input_files, out_a) == 0
        assert run_decompose(input_files, out_b) == 0
        capsys.readouterr()
        names = ["joint.txt", "ind_0.txt", "ind_1.txt", "report.json", "fit_log.txt", "model.json", "manifest.json"]
        for name in names:
            assert (out_a / name).exists(), name
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert [open(p, "rb").read() for p in input_files] == before

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
        assert decision["seed"] == 5 and decision["method"] == "wedin-resample"
        assert len(decision["signal_ranks"]) == 2 and len(decision["wedin_sin2"]) == 2
        assert len(decision["spectrum"]) == sum(decision["signal_ranks"])
        assert decision["tau_null"] is not None and decision["tau_wedin"] is not None
        pinned = tmp_path / "pinned"
        assert run_decompose(input_files, pinned) == 0
        capsys.readouterr()
        assert json.loads((pinned / "model.json").read_text())["rank_decision"] is None


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
        code = main(["compose", "--model", str(model_dir), "--compositions", "ind9", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "valid parts" in err and "joint" in err and "ind0" in err

    def test_missing_model(self, tmp_path, capsys):
        code = main(["compose", "--model", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "model.json" in capsys.readouterr().err


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
                "--seed", "1",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert row["accuracy"] == 1.0
        lines = (out / "results.jsonl").read_text().strip().splitlines()
        assert json.loads(lines[-1]) == row

    def test_results_append(self, tmp_path, capsys):
        corpus, embedding = separable_corpus(seed=24)
        emb_path = tmp_path / "emb.txt"
        write_embedding(embedding, emb_path)
        corpus_path = tmp_path / "corpus.tsv"
        write_corpus_tsv(corpus, corpus_path)
        out = tmp_path / "eval"
        argv = [
            "eval", "--input", str(emb_path), "--train", str(corpus_path),
            "--test", str(corpus_path), "--epochs", "3", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert len((out / "results.jsonl").read_text().strip().splitlines()) == 2


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

    def test_unknown_config_key_rejected(self, input_files, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        # epsilon belongs to decompose, not to ranks.
        config_path.write_text(json.dumps({"seed": 4, "epsilon": 0.5, "jointrank": "1"}))
        code = main(["--config", str(config_path), "ranks", "--input", input_files[0], "--input", input_files[1]])
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "jointrank" in err
