"""End-to-end CLI walkthrough on synthetic data.

Writes two synthetic embedding files sharing a planted joint subspace plus a
small labeled corpus, then drives the command-line pipeline: ranks ->
decompose -> compose -> eval -> report.  Everything lands under --work-dir.

    python scripts/pipeline_demo.py --work-dir /tmp/embedjive-demo
"""

import argparse
import pathlib
import sys

import numpy as np

from embedjive.cli import main as cli_main
from embedjive.embed_io import EmbeddingMatrix, write_embedding
from embedjive.synthetic import make_planted


def build_inputs(work_dir: pathlib.Path, seed: int):
    n = 400
    model = make_planted(
        (16, 24), n, 4, (3, 3),
        joint_scales=np.linspace(2.5, 1.8, 4),
        individual_scales=(np.linspace(1.2, 0.8, 3), np.linspace(1.2, 0.8, 3)),
        noise_sigma=0.01,
        seed=seed,
    )
    vocab = [f"w{i:04d}" for i in range(n)]
    paths = []
    for i, block in enumerate(model.blocks):
        path = work_dir / f"embedding_{i}.txt"
        write_embedding(EmbeddingMatrix(vocab=vocab, data=block, name=f"embedding_{i}"), path)
        paths.append(path)

    # Labels planted from the first joint direction, so every composed
    # embedding containing the joint part can separate the classes.
    rng = np.random.default_rng(seed + 1)
    corpus_path = work_dir / "corpus.tsv"
    with corpus_path.open("w", encoding="utf-8") as fh:
        scores = model.joint_vt[0]
        for _ in range(600):
            words = rng.choice(n, size=3, replace=False)
            label = int(scores[words].mean() > 0)
            fh.write(f"{label}\t" + " ".join(vocab[w] for w in words) + "\n")
    return paths, corpus_path


def run(argv):
    print("\n$ embedjive " + " ".join(str(a) for a in argv))
    code = cli_main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", type=pathlib.Path, default=pathlib.Path("demo_run"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    work = args.work_dir
    work.mkdir(parents=True, exist_ok=True)
    inputs, corpus = build_inputs(work, args.seed)

    run(["ranks", "--input", inputs[0], "--input", inputs[1], "--seed", args.seed])
    model_dir = work / "model"
    run([
        "decompose", "--input", inputs[0], "--input", inputs[1],
        "--joint-rank", 4, "--individual-ranks", "3,3",
        "--seed", args.seed, "--out-dir", model_dir,
    ])
    composed_dir = work / "composed"
    run(["compose", "--model", model_dir, "--compositions", "all", "--out-dir", composed_dir])
    eval_dir = work / "eval"
    composed = sorted(composed_dir.glob("*.txt"))
    eval_args = ["eval", "--train", corpus, "--test", corpus, "--out-dir", eval_dir]
    for path in [*inputs, *composed]:
        eval_args += ["--input", path]
    run(eval_args)
    run(["report", "--model", model_dir, "--format", "tsv"])
    print(f"\nartifacts under {work}/")


if __name__ == "__main__":
    main()
