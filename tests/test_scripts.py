"""The scripts under ``scripts/`` and the README's quick start run end to end
and print what they document, and the package's star import binds every name
it exports.

Each runs as its own process, the way a user starts it, so a helper that a
script imports and the package no longer has fails here.  So does the CLI's
exit-code contract, which argparse keeps by raising SystemExit.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

from embedjive.embed_io import parse_embedding, write_embedding
from test_cli import planted_inputs

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_pipeline_demo(tmp_path):
    work = tmp_path / "demo"
    lines = run_script("pipeline_demo.py", "--seed", "1", "--work-dir", str(work), cwd=tmp_path)
    commands = [line.split()[2] for line in lines if line.startswith("$ embedjive ")]
    assert commands == ["ranks", "decompose", "compose", "eval", "report"]
    assert any(re.fullmatch(r"converged=True iterations=\d+ out_dir=.*", line) for line in lines)
    composed = [line for line in lines if re.fullmatch(r"[a-z0-9+]+\.txt: \d+ x 400", line)]
    assert len(composed) == 7
    assert sum(line.startswith('{"accuracy": ') for line in lines) == 9
    assert lines[-1] == f"artifacts under {work}/"
    assert (work / "model" / "model.json").is_file()


def test_planted_demo(tmp_path):
    lines = run_script("planted_demo.py", "--seeds", "2", "--noise-fracs", "0.05", cwd=tmp_path)
    assert len(lines) == 1
    match = re.match(r"noise= *5\.00%  sigma=\S+  max sine=(\S+)  oracle=(\S+)  joint%=.*iters=\d+$", lines[0])
    assert match
    assert all(0.0 < float(sine) < 0.2 for sine in match.groups())


def test_rank_null_calibration(tmp_path):
    lines = run_script("rank_null_calibration.py", "--runs", "5", "--n", "300", "--resamples", "20", cwd=tmp_path)
    assert len(lines) == 4
    assert re.match(r"duplicated blocks +r=5: 5 ", lines[0])
    assert re.match(r"independent blocks +r=\d", lines[1])
    assert re.match(r" +false positives \d/5 = ", lines[2])
    assert re.match(r"planted joint rank 2 +r=2: 5 ", lines[3])


def test_cli_exit_codes(tmp_path):
    inputs = []
    for i, dim in enumerate((4, 5)):
        rows = [f"w{w:02d} " + " ".join(str((w * 7 + j * 3 + i) % 11 - 5) for j in range(dim)) for w in range(30)]
        (tmp_path / f"in{i}.txt").write_text("\n".join(rows) + "\n")
        inputs += ["--input", str(tmp_path / f"in{i}.txt")]
    decompose = ["decompose", *inputs, "--joint-rank", "1", "--individual-ranks", "1,1"]

    def exit_code(config, *argv):
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [sys.executable, "-m", "embedjive", "--config", str(tmp_path / "config.json"), *argv]
        return subprocess.run(argv, cwd=tmp_path, env=ENV, capture_output=True, timeout=120).returncode

    assert exit_code({"jointrank": 1}, *decompose, "--out-dir", "a") == 2
    assert exit_code({"epsilon": None}, *decompose, "--out-dir", "b") == 2
    assert exit_code({}, *decompose) == 2
    assert not any((tmp_path / d).exists() for d in "ab")
    assert exit_code({"out_dir": "model"}, *decompose) == 0
    assert (tmp_path / "model" / "model.json").is_file()
    # A model.json value of the wrong kind is a usage error, not a traceback.
    shutil.copytree(tmp_path / "model", tmp_path / "copy")
    record = json.loads((tmp_path / "copy" / "model.json").read_text())
    (tmp_path / "copy" / "model.json").write_text(json.dumps(record | {"individual_files": 3}))
    proc = subprocess.run([sys.executable, "-m", "embedjive", "report", "--model", "copy"], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr


def test_readme_quick_start(tmp_path):
    """The README's python block, run as written next to the two files it reads."""
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    glove, second = planted_inputs(tmp_path, (24, 30), 400, 8, (4, 6), seed=1)
    pathlib.Path(glove).rename(tmp_path / "glove.50d.txt")
    write_embedding(parse_embedding(second), tmp_path / "w2v.vec", "word2vec-text")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"(tolerance|exact_fit) 8 \[\S+, \S+\]", lines[0])
    assert lines[1] == "block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"
    assert [line.split("\t")[0] for line in lines[2:]] == ["glove.50d", "w2v"]
    names = ["joint", "ind0", "ind1", "joint+ind0", "joint+ind1", "ind0+ind1", "joint+ind0+ind1"]
    assert all((tmp_path / f"{name}.txt").is_file() for name in names)


def test_star_import_binds_every_export():
    """A name left in ``__all__`` after its definition is gone fails here."""
    code = ("from embedjive import *\nimport embedjive\nassert embedjive.__all__\n"
            "missing = [n for n in embedjive.__all__ if n not in globals()]\nassert not missing, missing")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_the_thread_pool_and_numpy_random_unloaded():
    """``concurrent.futures`` and ``multiprocessing`` never load (jobs on
    every CPU use ``os.fork``), and ``numpy.random`` only when a command
    draws: loaded at import, ``numpy.random`` raised the peak RSS of
    ``ranks`` by 2.4 MB."""
    code = ("import sys, embedjive.cli\n"
            "print(sorted({'concurrent.futures', 'multiprocessing', 'numpy.random'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_forked_ranks_loads_no_thread_pool(tmp_path):
    """``ranks`` with OpenBLAS pinned to one thread, on 2 CPUs and forking
    draws of any size, forks one child for its draws and loads neither
    ``concurrent.futures`` nor ``multiprocessing``."""
    inputs = planted_inputs(tmp_path, (24, 30), 400, 8, (4, 6), seed=1)
    argv = ["ranks", *sum((["--input", str(path)] for path in inputs), [])]
    code = ("import os, sys, embedjive.cli as cli, embedjive.rank_select as rank_select\n"
            "cli.jobs._cpu_count, rank_select._FORKED_WORK, fork, forks = (lambda: 2), 0, os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(len(forks), sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = dict(ENV, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 []"
