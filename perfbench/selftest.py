"""Self-test of the benchmark at tiny shapes; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced, and that a single flipped byte in one
composed file makes its op count as failed in ``fail_frac``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def flip_one_byte(target_op: int):
    """Corrupt hook: flip the low bit of one digit in the middle of a composed file."""

    def corrupt(op_id: int, op_dir: Path) -> None:
        if op_id != target_op:
            return
        path = op_dir / "composed" / "joint+ind0.txt"
        data = bytearray(path.read_bytes())
        i = len(data) // 2
        while not chr(data[i]).isdigit():
            i += 1
        data[i] ^= 1  # '0'<->'1', '2'<->'3', ...: still a digit, still parseable
        path.write_bytes(bytes(data))

    return corrupt


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.NAMES:
        shape = workloads.TINY_SHAPES[name]
        for trace in (False, True):
            result = run.measure(name, seed=1, seconds=0, trace=trace, shape=shape)
            if run.report_failures(result):
                problems.append(f"{name} trace={trace}: an op failed at the tiny shape")
                continue
            metrics = run.per_layer(result)["metrics"] if trace else run.end_to_end(result)["metrics"]
            emitted = {k: unit for k, (_, unit) in metrics.items()}
            if emitted != wanted[trace]:
                problems.append(f"{name} trace={trace}: emitted {emitted}, BENCHMARK.json names {wanted[trace]}")

    result = run.measure("compose-eval", seed=1, seconds=0, trace=False, shape=workloads.TINY_SHAPES["compose-eval"],
                         corrupt=flip_one_byte(1), min_ops=2)
    fail_frac = run.end_to_end(result)["extra"]["fail_frac"][0]
    flagged = [i for i, op in enumerate(result["ops"]) if op["problems"]]
    if flagged != [1] or fail_frac != 0.5:
        problems.append(f"flipped byte: failed ops {flagged}, fail_frac {fail_frac}; expected [1] and 0.5")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
