"""A fixed reference task, timed next to every op to factor out host speed.

    python perfbench/reference_task.py OUT_FILE INPUT...

It does the kinds of work an embedjive op does, with its own code, on the
op's own input files: it parses each embedding text file with plain Python,
takes a numpy SVD of the matrix, writes the scaled left factor back as
6-decimal text, and QR-factors a fixed Gaussian matrix as wide as all blocks
together.  It never imports embedjive, so a change to the package leaves its
time alone, while a host that runs slower or faster for a while moves the
task and the ops next to it together.
"""

from __future__ import annotations

import sys

import numpy as np


def parse(path: str) -> tuple[list[str], np.ndarray]:
    words, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 3:  # the word2vec-text header
                continue
            words.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    return words, np.array(rows)


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: reference_task.py OUT_FILE INPUT...", file=sys.stderr)
        return 2
    out, inputs = sys.argv[1], sys.argv[2:]
    widths, shortest = 0, None
    for path in inputs:
        words, matrix = parse(path)
        u, s, _ = np.linalg.svd(matrix, full_matrices=False)
        with open(out, "w", encoding="utf-8") as fh:
            for word, row in zip(words, (u * s).tolist()):
                fh.write(word + " " + " ".join("%.6f" % v for v in row) + "\n")
        widths += matrix.shape[1]
        shortest = len(words) if shortest is None else min(shortest, len(words))
    np.linalg.qr(np.random.default_rng(0).standard_normal((shortest, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
