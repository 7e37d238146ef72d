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


def compose(result, spec: CompositionSpec, vocab: list[str]) -> EmbeddingMatrix:
    """Stack the selected score matrices into a new embedding.

    The output has one row per selected component rank and the vocabulary
    attached unchanged; selecting only rank-0 components is an error.
    """
    rows = []
    for part in spec.parts:
        if part == JOINT_PART:
            block = result.joint_basis
        else:
            match = _IND_RE.match(part)
            if match is None or int(match.group(1)) >= len(result.individual_scores):
                raise ValueError(f"unknown composition part {part!r}")
            block = result.individual_scores[int(match.group(1))]
        if block.shape[0]:
            rows.append(block)
    if not rows:
        raise ValueError(f"empty composition: {spec.name!r} selects only rank-0 components")
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


def report_tsv(report: VarianceReport) -> str:
    """Tab-separated table with display rounding to one decimal."""
    lines = ["block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"]
    for i, name in enumerate(report.block_names):
        lines.append(
            f"{name}\t{report.joint_pct[i]:.1f}\t{report.individual_pct[i]:.1f}"
            f"\t{report.residual_pct[i]:.1f}\t{report.joint_rank}\t{report.individual_ranks[i]}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: VarianceReport, path: str | Path, fmt: str = "tsv", provenance: dict | None = None) -> None:
    """Write the report as TSV (one-decimal display) or JSON (full precision).

    Output bytes are a deterministic function of the report content.
    """
    if fmt == "tsv":
        text = report_tsv(report)
    elif fmt == "json":
        text = json.dumps(report_json_dict(report, provenance), sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected 'tsv' or 'json'")
    Path(path).write_text(text, encoding="utf-8")
