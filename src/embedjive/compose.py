"""Compose fitted factors into new embeddings and write variance reports.

A composition stacks selected score matrices: the joint scores (``joint``)
and/or any block's individual scores (``ind0``, ``ind1``, ...).  Scores carry
the singular-value scale, so composed embeddings are magnitude-bearing
features, not bare orthonormal bases; for two blocks the standard menu is the
seven non-empty combinations.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from embedjive.embed_io import EmbeddingMatrix
from embedjive.jive import VarianceReport

JOINT_PART = "joint"
_IND_RE = re.compile(r"ind(\d+)$")


@dataclass(frozen=True)
class CompositionSpec:
    """Ordered selection of component score matrices to stack."""

    parts: tuple[str, ...]
    name: str

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("composition has no parts")
        if len(set(self.parts)) != len(self.parts):
            raise ValueError(f"composition {self.name!r} repeats a part")


def valid_part_names(n_blocks: int) -> list[str]:
    return [JOINT_PART] + [f"ind{i}" for i in range(n_blocks)]


def parse_composition(text: str, n_blocks: int) -> CompositionSpec:
    """Parse e.g. ``"joint+ind0"`` into a :class:`CompositionSpec`."""
    tokens = tuple(t.strip() for t in text.split("+"))
    valid = valid_part_names(n_blocks)
    for token in tokens:
        if token == JOINT_PART:
            continue
        match = _IND_RE.match(token)
        if match is None or int(match.group(1)) >= n_blocks:
            raise ValueError(f"unknown composition part {token!r}; valid parts: {', '.join(valid)}")
    return CompositionSpec(parts=tokens, name="+".join(tokens))


def standard_compositions(n_blocks: int) -> list[CompositionSpec]:
    """The standard menu: joint, each individual, joint plus each individual,
    all individuals, and everything (seven entries for two blocks)."""
    inds = [f"ind{i}" for i in range(n_blocks)]
    selections = [[JOINT_PART]]
    selections += [[i] for i in inds]
    selections += [[JOINT_PART, i] for i in inds]
    selections.append(list(inds))
    selections.append([JOINT_PART, *inds])
    return [CompositionSpec(parts=tuple(sel), name="+".join(sel)) for sel in selections]


def selected_parts(spec: CompositionSpec, ranks: list[int]) -> list[int]:
    """Indices into ``ranks`` (joint first, then each block's individual
    part) of the parts ``spec`` selects, in its order, skipping rank-0 parts;
    selecting only rank-0 parts is an error."""
    selected = []
    for part in spec.parts:
        if part == JOINT_PART:
            index = 0
        else:
            match = _IND_RE.match(part)
            if match is None or int(match.group(1)) >= len(ranks) - 1:
                raise ValueError(f"unknown composition part {part!r}")
            index = 1 + int(match.group(1))
        if ranks[index]:
            selected.append(index)
    if not selected:
        raise ValueError(f"empty composition: {spec.name!r} selects only rank-0 components")
    return selected


def compose(result, spec: CompositionSpec, vocab: list[str]) -> EmbeddingMatrix:
    """Stack the selected score matrices into a new embedding.

    The output has one row per selected component rank and the vocabulary
    attached unchanged; selecting only rank-0 components is an error.
    """
    parts = [result.joint_basis, *result.individual_scores]
    rows = [parts[i] for i in selected_parts(spec, [p.shape[0] for p in parts])]
    return EmbeddingMatrix(vocab=list(vocab), data=np.vstack(rows), name=spec.name)


def report_json_dict(report: VarianceReport, provenance: dict | None = None) -> dict:
    """Full-precision report dictionary; ``provenance`` echoes run settings."""
    payload = {
        "joint_rank": report.joint_rank,
        "blocks": [
            {
                "name": report.block_names[i],
                "joint_pct": report.joint_pct[i],
                "individual_pct": report.individual_pct[i],
                "residual_pct": report.residual_pct[i],
                "individual_rank": report.individual_ranks[i],
            }
            for i in range(len(report.block_names))
        ],
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def report_tsv(payload: dict) -> str:
    """Tab-separated table of a report dictionary, as :func:`report_json_dict`
    builds it or ``report.json`` holds it, with display rounding to one decimal."""
    lines = ["block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"]
    for b in payload["blocks"]:
        lines.append(
            f"{b['name']}\t{b['joint_pct']:.1f}\t{b['individual_pct']:.1f}"
            f"\t{b['residual_pct']:.1f}\t{payload['joint_rank']}\t{b['individual_rank']}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: VarianceReport, path: str | Path, fmt: str = "tsv", provenance: dict | None = None) -> None:
    """Write the report as TSV (one-decimal display) or JSON (full precision).

    Output bytes are a deterministic function of the report content.
    """
    if fmt == "tsv":
        text = report_tsv(report_json_dict(report))
    elif fmt == "json":
        text = json.dumps(report_json_dict(report, provenance), sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected 'tsv' or 'json'")
    Path(path).write_text(text, encoding="utf-8")
