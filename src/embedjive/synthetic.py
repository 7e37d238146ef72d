"""Planted-structure generators for benchmarks and tests.

A planted model builds blocks as ``X_i = B_i @ J + D_i @ H_i + sigma * E_i``
from explicitly drawn orthonormal frames, so the true joint row space and the
exact energy split are known by construction.  All frames are drawn orthogonal
to the all-ones direction, which keeps every block feature-centered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import truncated_svd

# Accepted deviation from orthonormality for validated basis inputs.
ROW_ORTHO_TOL = 1e-8


def project_rows_off(matrix, vt) -> np.ndarray:
    """Project the rows of ``matrix`` off the row space spanned by ``vt``.

    ``vt`` must have (near-)orthonormal rows; an empty basis returns a copy.
    The projector is applied as ``M - (M vt') vt`` so no ``n x n`` matrix is
    formed.
    """
    m = np.asarray(matrix, dtype=float)
    basis = np.asarray(vt, dtype=float)
    if m.ndim != 2 or basis.ndim != 2 or basis.shape[1] != m.shape[1]:
        raise ValueError(f"dimension mismatch: matrix has shape {m.shape}, basis has shape {basis.shape}")
    if basis.shape[0] == 0:
        return m.copy()
    gram = basis @ basis.T
    deviation = float(np.abs(gram - np.eye(basis.shape[0])).max())
    if deviation > ROW_ORTHO_TOL:
        raise ValueError(f"basis rows are not orthonormal (max deviation {deviation:.3e})")
    return m - (m @ basis.T) @ basis


@dataclass
class PlantedModel:
    """Blocks with known joint/individual structure and their energy ledger."""

    blocks: list[np.ndarray]
    joint_vt: np.ndarray
    individual_vts: list[np.ndarray]
    joint_sq: list[float]
    individual_sq: list[float]
    noise_sq: list[float]
    noise_sigma: float

    @property
    def joint_rank(self) -> int:
        return self.joint_vt.shape[0]

    @property
    def individual_ranks(self) -> list[int]:
        return [vt.shape[0] for vt in self.individual_vts]

    def expected_pct(self, i: int) -> tuple[float, float, float]:
        """Planted (joint, individual, noise) percentages for block ``i``.

        Exact for ``noise_sigma == 0``; with noise the small cross terms
        between noise and signal are not accounted for.
        """
        total = self.joint_sq[i] + self.individual_sq[i] + self.noise_sq[i]
        return (
            100.0 * self.joint_sq[i] / total,
            100.0 * self.individual_sq[i] / total,
            100.0 * self.noise_sq[i] / total,
        )

    def oracle_joint_vt(self, blocks) -> np.ndarray:
        """Joint row space of ``blocks`` estimated with the planted individual rows known.

        Projects the rows of the stacked blocks off every planted individual
        row space and returns the top ``joint_rank`` right singular vectors of
        what is left.  This is a reference for how well the joint space can be
        recovered at a given noise level, not an estimator for real data: it
        is handed ``individual_vts``, which a fit never sees.
        """
        stacked = project_rows_off(np.vstack(blocks), np.vstack(self.individual_vts))
        return truncated_svd(stacked, self.joint_rank).Vt


def _orthonormal_rows(rng: np.random.Generator, k: int, n: int, avoid: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.zeros((0, n))
    g = rng.standard_normal((n, k))
    if avoid.size:
        g -= avoid.T @ (avoid @ g)
    q, _ = np.linalg.qr(g)
    return q.T


def _scaled_frame(rng: np.random.Generator, p: int, k: int, scales: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.zeros((p, 0))
    q, _ = np.linalg.qr(rng.standard_normal((p, k)))
    return q * scales


def make_planted(
    p_dims: Sequence[int],
    n: int,
    joint_rank: int,
    individual_ranks: Sequence[int],
    joint_scales: Sequence[float] | None = None,
    individual_scales: Sequence[Sequence[float]] | None = None,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> PlantedModel:
    """Draw a planted model with the given shapes and component scales.

    ``joint_scales`` (length ``joint_rank``) are the per-block singular values
    of the joint part; ``individual_scales[i]`` those of block i's individual
    part.  Defaults: flat 1.0 joint scales and flat 0.2 individual scales.
    """
    p_dims = [int(p) for p in p_dims]
    individual_ranks = [int(r) for r in individual_ranks]
    if len(individual_ranks) != len(p_dims):
        raise ValueError(f"{len(individual_ranks)} individual ranks for {len(p_dims)} blocks")
    total_planted = joint_rank + sum(individual_ranks)
    if total_planted + 1 > n:
        raise ValueError(f"need n > {total_planted} to plant {total_planted} directions")
    for p, r_i in zip(p_dims, individual_ranks):
        if joint_rank + r_i > p:
            raise ValueError(f"block with {p} rows cannot hold joint rank {joint_rank} plus individual rank {r_i}")
    if joint_scales is None:
        joint_scales = np.ones(joint_rank)
    joint_scales = np.asarray(joint_scales, dtype=float)
    if joint_scales.shape != (joint_rank,):
        raise ValueError(f"expected {joint_rank} joint scales, got {joint_scales.shape}")
    if individual_scales is None:
        individual_scales = [0.2 * np.ones(r_i) for r_i in individual_ranks]
    individual_scales = [np.asarray(s, dtype=float) for s in individual_scales]
    for s, r_i in zip(individual_scales, individual_ranks):
        if s.shape != (r_i,):
            raise ValueError(f"expected {r_i} individual scales, got {s.shape}")

    rng = np.random.default_rng(seed)
    ones = np.ones((1, n)) / np.sqrt(n)
    joint_vt = _orthonormal_rows(rng, joint_rank, n, ones)
    taken = np.vstack([ones, joint_vt])

    blocks, individual_vts = [], []
    joint_sq, individual_sq, noise_sq = [], [], []
    for i, p in enumerate(p_dims):
        ind_vt = _orthonormal_rows(rng, individual_ranks[i], n, taken)
        taken = np.vstack([taken, ind_vt])
        block = _scaled_frame(rng, p, joint_rank, joint_scales) @ joint_vt
        block += _scaled_frame(rng, p, individual_ranks[i], individual_scales[i]) @ ind_vt
        if noise_sigma > 0:
            noise = noise_sigma * rng.standard_normal((p, n))
            block = block + noise
            noise_sq.append(float(np.vdot(noise, noise).real))
        else:
            noise_sq.append(0.0)
        blocks.append(block)
        individual_vts.append(ind_vt)
        joint_sq.append(float(np.sum(joint_scales**2)))
        individual_sq.append(float(np.sum(individual_scales[i] ** 2)))
    return PlantedModel(
        blocks=blocks,
        joint_vt=joint_vt,
        individual_vts=individual_vts,
        joint_sq=joint_sq,
        individual_sq=individual_sq,
        noise_sq=noise_sq,
        noise_sigma=noise_sigma,
    )


def sigma_for_noise_fraction(
    p_dims: Sequence[int],
    n: int,
    signal_sq: float,
    fraction: float,
) -> float:
    """Noise std so the expected noise energy is ``fraction`` of total energy."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    cells = sum(int(p) * n for p in p_dims)
    return float(np.sqrt(fraction / (1.0 - fraction) * signal_sq / cells))
