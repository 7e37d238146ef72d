"""Compose fitted factors into new embeddings.

A composition stacks selected score matrices: the joint scores (``joint``)
and/or any block's individual scores (``ind0``, ``ind1``, ...).  Scores carry
the singular-value scale, so composed embeddings are magnitude-bearing
features, not bare orthonormal bases; for two blocks the standard menu is the
seven non-empty combinations.  A part has one spelling: ``ind1`` names block
1, and ``ind01`` names nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from embedjive.embed_io import EmbeddingMatrix

JOINT_PART = "joint"


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
        if token not in valid:
            raise ValueError(f"unknown composition part {token!r}; valid parts: {', '.join(valid)}")
    return CompositionSpec(parts=tokens, name="+".join(tokens))


def standard_compositions(n_blocks: int) -> list[CompositionSpec]:
    """The standard menu: joint, each individual, joint plus each individual,
    all individuals, and everything (seven entries for two blocks)."""
    inds = valid_part_names(n_blocks)[1:]
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
    valid, selected = valid_part_names(len(ranks) - 1), []
    for part in spec.parts:
        if part not in valid:
            raise ValueError(f"unknown composition part {part!r}")
        index = valid.index(part)
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
