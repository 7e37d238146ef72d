"""Joint-rank and individual-rank selection.

The joint rank is read off the squared singular values of the stacked
per-block row-space bases: a direction shared by all K blocks pushes a squared
singular value toward K, while chance alignment of unrelated subspaces stays
near 1.  The decision threshold combines two pieces:

* a Monte Carlo null: the chosen quantile of the largest squared singular
  value over stacks of K independent random bases of the same sizes, and
* a perturbation floor: per block, resampled matrices carrying the block's
  residual spectrum bound how far noise can tilt the estimated signal
  subspace (a Wedin-type sine bound); a truly shared direction must keep its
  stacked squared singular value above K minus the summed squared sines.

Neither sampler draws anything with n (vocabulary) rows, yet both are exact
in distribution.  The null's K random bases are the column blocks of one
Haar n x T frame, T the summed signal ranks; their relative geometry is that
of the column blocks of the T x T Bartlett factor of an n x T Gaussian
(Absil, Edelman & Koev, "On the largest principal angle between random
subspaces", LAA 2006).  The Wedin floor needs only the t x m corner of a Haar
n x m frame (Feng et al., "Angle-based joint and individual variation
explained", JMVA 2018), drawn from t Gaussian rows plus the Bartlett factor
of the remaining n - t.  A draw costs O(T^3) and O(p m^2), not O(n T^2).

Each block's individual rank is its signal rank minus the joint rank, the
rule of the same AJIVE paper: no second energy rule runs on the leftover
after the joint space is projected off, which is mostly noise.

There is one rule, ``tau = max(tau_null, tau_wedin)``.  A decision records
both pieces and the spectrum, so what the Monte Carlo null alone would pick,
the count of spectrum values above ``tau_null``, can be read off any decision.
"""

from __future__ import annotations

import numpy as np

from embedjive.jive import BlockStack
from embedjive.linalg import TruncatedSVD


def check_settings(energy: float = 0.95, resamples: int = 100, quantile: float = 0.95) -> None:
    """Raise ValueError unless ``0 < energy <= 1``, ``resamples >= 10`` and
    ``0 < quantile < 1``: the settings of the signal-rank and joint-rank
    rules, checked whether or not a run goes on to use them."""
    if not 0 < energy <= 1:
        raise ValueError(f"energy fraction must be in (0, 1], got {energy}")
    if resamples < 10:
        raise ValueError(f"resamples must be >= 10, got {resamples}")
    if not 0 < quantile < 1:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")


def estimate_signal_rank(s, energy: float = 0.95) -> int:
    """Per-block signal rank read off the block's singular values ``s``
    (descending): the smallest rank whose leading values capture at least
    ``energy`` of the block's squared Frobenius norm."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or not np.isfinite(s).all() or (s < 0).any():
        raise ValueError(f"expected a 1-D spectrum of finite non-negative singular values, got shape {s.shape}")
    check_settings(energy=energy)
    sq = s**2
    total = float(sq.sum())
    if total == 0.0:
        raise ValueError("zero block has no signal rank")
    cumulative = np.cumsum(sq) / total
    t = int(np.searchsorted(cumulative, energy - 1e-12)) + 1
    return min(t, s.size)


def numerical_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """How many of a ``p x n`` block's singular values ``s`` (descending) lie
    above ``s[0] * max(p, n) * eps``: a direction past that floor is
    arbitrary, not signal."""
    return int((s > s[0] * max(shape) * np.finfo(float).eps).sum())


def select_joint_rank(
    blocks,
    signal_ranks,
    resamples: int = 100,
    quantile: float = 0.95,
    seed: int = 0,
) -> dict:
    """Choose the joint rank from the stacked-basis squared singular values,
    thresholded at the larger of the Monte Carlo null quantile and the
    Wedin-type floor.  Deterministic given ``seed``: the random stream is
    partitioned per draw, so results do not depend on evaluation order.

    ``blocks`` is a :class:`BlockStack`, or a list that is compressed first.
    The spectrum is read off the stack's block SVDs; the samplers and the
    ``sum(signal ranks) <= n`` check use the vocabulary size n.  A signal
    rank above a block's numerical rank raises ValueError.

    The decision is the dict that ``ranks.json`` holds: ``joint_rank``,
    ``signal_ranks``, ``tau``, ``tau_null``, ``tau_wedin``, ``wedin_sin2``
    (per block), ``spectrum``, ``resamples``, ``quantile``, ``seed`` and the
    ``individual_ranks`` of :func:`select_individual_ranks`.
    """
    stack = BlockStack.of(blocks)
    k_blocks, n = len(stack), stack.n
    t = [int(v) for v in signal_ranks]
    if len(t) != k_blocks:
        raise ValueError(f"{len(t)} signal ranks for {k_blocks} blocks")
    for i, t_i in enumerate(t):
        if not 1 <= t_i <= min(stack.block(i).shape):
            raise ValueError(f"signal rank {t_i} out of range for block {i}")
    if sum(t) > n:
        raise ValueError(f"stacked bases need sum(signal ranks) <= {n}, got {sum(t)}")
    check_settings(resamples=resamples, quantile=quantile)

    # Full SVDs: the signal rows come first, the residual spectrum after them.
    svds = stack.svds
    for i, (svd, t_i, shape) in enumerate(zip(svds, t, stack.shapes)):
        rank = numerical_rank(svd.S, shape)
        if t_i > rank:
            raise ValueError(
                f"signal rank {t_i} exceeds the numerical rank {rank} of block {i} ({stack.names[i]})")
    stacked_bases = np.hstack([svd.Vt[:t_i].T for svd, t_i in zip(svds, t)])
    spectrum = np.clip(np.linalg.eigvalsh(stacked_bases.T @ stacked_bases)[::-1], 0.0, None)

    null_seq, *block_seqs = np.random.SeedSequence(seed).spawn(1 + k_blocks)
    null_max = _null_spectrum_max(n, t, resamples, null_seq)
    # Order-statistic ("higher") quantile: the smallest sample at or above the
    # requested coverage, the conservative convention for a threshold.
    tau_null = float(np.quantile(null_max, quantile, method="higher"))

    wedin_sin2 = [
        _wedin_sin_bound(svds[i], t[i], resamples, quantile, block_seqs[i], n) ** 2
        for i in range(k_blocks)
    ]
    tau_wedin = max(0.0, k_blocks - float(sum(wedin_sin2)))
    # A floor of exactly K would reject even numerically perfect agreement.
    tau = min(max(tau_null, tau_wedin), k_blocks * (1.0 - 1e-12))

    joint_rank = min(int((spectrum > tau).sum()), min(t))
    return {
        "joint_rank": joint_rank,
        "signal_ranks": t,
        "tau": float(tau),
        "tau_null": tau_null,
        "tau_wedin": tau_wedin,
        "wedin_sin2": wedin_sin2,
        "spectrum": [float(v) for v in spectrum],
        "resamples": resamples,
        "quantile": quantile,
        "seed": seed,
        "individual_ranks": select_individual_ranks(t, joint_rank),
    }


def select_individual_ranks(signal_ranks, joint_rank: int) -> list[int]:
    """Individual ranks read off the signal ranks: ``max(t_i - r, 0)`` per
    block, which is AJIVE's rule when each block's signal space contains the
    joint space."""
    return [max(int(t_i) - int(joint_rank), 0) for t_i in signal_ranks]


def _bartlett(rng: np.random.Generator, rows: int, cols: int, dof: int) -> np.ndarray:
    """Upper-trapezoidal ``rows x cols`` R with R'R ~ Wishart(dof, I_cols):
    the R factor of a ``dof x cols`` Gaussian matrix (Bartlett decomposition),
    drawn without the ``dof`` rows.  Needs ``dof >= rows``."""
    r = np.triu(rng.standard_normal((rows, cols)), 1)
    j = np.arange(rows)
    r[j, j] = np.sqrt(rng.chisquare(dof - j))
    return r


def _null_spectrum_max(n: int, ranks: list[int], resamples: int, seq: np.random.SeedSequence) -> np.ndarray:
    """Largest squared singular value of stacks of independent random bases.

    An n x T Gaussian G factors as Q R with Q Haar and independent of R, so
    the orthonormal bases of G's column blocks are Q times those of R's; the
    stacked Gram, and with it the spectrum, is that of the T x T R alone.
    """
    total = sum(ranks)
    splits = np.cumsum(ranks)[:-1]
    out = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        r = _bartlett(rng, total, total, n)
        stacked = np.hstack([np.linalg.qr(cols)[0] for cols in np.hsplit(r, splits)])
        out[d] = float(np.linalg.eigvalsh(stacked.T @ stacked).max())
    return out


def _wedin_sin_bound(
    svd: TruncatedSVD, t_i: int, resamples: int, quantile: float, seq: np.random.SeedSequence, n: int
) -> float:
    """Resampled Wedin-type bound on the sine of the largest angle by which
    noise with the block's residual spectrum can tilt the signal subspace.

    ``svd`` is the block's full SVD: its first ``t_i`` singular triples are
    the signal, the singular values after them the residual spectrum.
    ``n`` is the vocabulary size, which the block (possibly compressed)
    need not have as its column count.

    Both terms of the bound are kept.  The left (p-side) term is the norm of
    the residual spectrum times the t x m corner of a Haar p x m frame, the
    right (n-side) term the same with a Haar n x m frame, so at n = p they are
    equal in law and neither bounds the other.  Over 300 draws at p = 50,
    t = 10, the right term beat the left in 53% of draws at n = 50, 13% at
    n = 60 and 0% at n = 100; dropping it whenever p <= n would lower
    tau_wedin for blocks near n = p.
    """
    p = svd.U.shape[0]
    signal_u = svd.U[:, :t_i]
    residual_sv = svd.S[t_i:]
    smallest_signal = float(svd.S[t_i - 1])
    if residual_sv.size == 0:
        return 0.0
    if float(residual_sv.max()) <= smallest_signal * 1e-12:
        return 0.0
    m = residual_sv.size
    bounds = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        u_rand = np.linalg.qr(rng.standard_normal((p, m)))[0]
        # E = u_rand diag(residual_sv) v_rand' with v_rand a Haar n x m frame;
        # operator norms of E V-hat and U-hat' E reduce to small t x m / m x t
        # products.  V-hat' v_rand is, in law, the top t x m corner of a Haar
        # frame: the Q factor of a Gaussian whose last n - t rows enter only
        # through their Gram, a Wishart(n - t) drawn as its Bartlett factor.
        g1 = rng.standard_normal((t_i, m))
        r2 = _bartlett(rng, min(n - t_i, m), m, n - t_i)
        corner = np.linalg.qr(np.vstack([g1, r2]))[0][:t_i]
        right = np.linalg.norm(corner * residual_sv[None, :], 2)
        left = np.linalg.norm((signal_u.T @ u_rand) * residual_sv[None, :], 2)
        bounds[d] = min(1.0, max(right, left) / smallest_signal)
    return float(np.quantile(bounds, quantile, method="higher"))
