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
Each draw has its own generator; the samplers stack chunks of draws into
one LAPACK call per step and, when the work is large enough to pay for it,
run the chunks on a thread pool of up to one worker per CPU the process may
run on.  Every value is the same, bit for bit, whatever the CPU count.

Each block's individual rank is its signal rank minus the joint rank, the
rule of the same AJIVE paper: no second energy rule runs on the leftover
after the joint space is projected off, which is mostly noise.

There is one rule, ``tau = max(tau_null, tau_wedin)``.  A decision records
both pieces and the spectrum, so what the Monte Carlo null alone would pick,
the count of spectrum values above ``tau_null``, can be read off any decision.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from embedjive.jive import BlockStack
from embedjive.linalg import TruncatedSVD

# Draws per stacked LAPACK call.  A chunk's arrays stay in its worker
# thread's heap: with blocks of 50, 100 and 75 dims and signal ranks 30, 40
# and 35, two workers on chunks of 10 left `ranks`' peak RSS (set while
# parsing) unchanged, chunks of 16 raised it by about 0.5 MB and chunks of
# 25 by about 5.5 MB.
_CHUNK = 10
# Summed work of a selection's samplers (resamples times a draw's leading
# LAPACK term: T^3 for the null, (p + t + m) m^2 for a Wedin draw) below
# which the chunks run inline: there a draw is mostly Python and two threads
# mostly queue for the GIL.  On 2 vCPUs with one BLAS thread, a pool of two
# was 1.23x slower than inline at 6e7 and 0.83x at 1.1e8.
_THREADED_WORK = 1e8


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
    partitioned per draw, so results do not depend on evaluation order.  The
    draws run as stacked chunks, on up to one thread per CPU the process may
    run on, and the decision is bit-identical for every CPU count.

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
    wedin = [_wedin_sampler(svds[i], t[i], resamples, block_seqs[i], n) for i in range(k_blocks)]
    null_max, *wedin_draws = _draw([_null_sampler(n, t, resamples, null_seq), *filter(None, wedin)])
    tau_null = _quantile(null_max, quantile)
    wedin_draws = iter(wedin_draws)
    wedin_sin2 = [0.0 if sampler is None else _quantile(next(wedin_draws), quantile) ** 2 for sampler in wedin]
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


def _bartlett(normals: np.ndarray, chisquares: np.ndarray) -> None:
    """Turn each ``rows x cols`` matrix of a stack of standard normals, in
    place, into an upper-trapezoidal R with R'R ~ Wishart(dof, I_cols): the R
    factor of a ``dof x cols`` Gaussian matrix (Bartlett decomposition),
    drawn without the ``dof`` rows.  ``chisquares[d, j]`` is a chi-square
    draw with ``dof - j`` degrees of freedom; needs ``dof >= rows``."""
    rows, cols = normals.shape[1:]
    below = np.tril_indices(rows, 0, cols)
    normals[:, below[0], below[1]] = 0.0
    j = np.arange(rows)
    normals[:, j, j] = np.sqrt(chisquares)


def _quantile(draws: np.ndarray, quantile: float) -> float:
    # Order-statistic ("higher") quantile: the smallest sample at or above the
    # requested coverage, the conservative convention for a threshold.
    return float(np.quantile(draws, quantile, method="higher"))


def _sampler(chunk_fn, seq: np.random.SeedSequence, resamples: int, draw_work: int) -> tuple[list, int]:
    """A sampler's jobs, one per chunk of up to ``_CHUNK`` draws in draw
    order, each calling ``chunk_fn`` on its draws' ``SeedSequence``
    children; and its work, ``resamples * draw_work``."""
    children = seq.spawn(resamples)
    jobs = [functools.partial(chunk_fn, children[i:i + _CHUNK]) for i in range(0, resamples, _CHUNK)]
    return jobs, resamples * draw_work


def _draw(samplers: list[tuple[list, int]]) -> list[np.ndarray]:
    """Every sampler's draws, concatenated in draw order.

    The jobs of all samplers go to one thread pool of up to one worker per
    CPU the process may run on: numpy's LAPACK calls release the GIL, and a
    job stacks its draws into one call per step, so the workers overlap in
    LAPACK rather than queue for the GIL.  Below ``_THREADED_WORK`` a draw is
    mostly Python, and the jobs run inline.  Every draw reads only its own
    generator, so the result does not depend on the worker count.
    """
    jobs = [job for sampler_jobs, _ in samplers for job in sampler_jobs]
    workers = min(_cpu_count(), len(jobs))
    if workers > 1 and sum(work for _, work in samplers) >= _THREADED_WORK:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda job: job(), jobs))
    else:
        results = [job() for job in jobs]
    out, start = [], 0
    for sampler_jobs, _ in samplers:
        out.append(np.concatenate(results[start:start + len(sampler_jobs)]))
        start += len(sampler_jobs)
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _null_sampler(n: int, ranks: list[int], resamples: int, seq: np.random.SeedSequence) -> tuple[list, int]:
    return _sampler(functools.partial(_null_chunk, n, ranks), seq, resamples, sum(ranks) ** 3)


def _null_chunk(n: int, ranks: list[int], children: list[np.random.SeedSequence]) -> np.ndarray:
    """The null's draws for one chunk of ``SeedSequence`` children."""
    total = sum(ranks)
    r, chisquares = np.empty((len(children), total, total)), np.empty((len(children), total))
    dof = n - np.arange(total)
    for d, child in enumerate(children):
        rng = np.random.default_rng(child)
        rng.standard_normal(out=r[d])
        chisquares[d] = rng.chisquare(dof)
    _bartlett(r, chisquares)
    # Each column block's orthonormal basis overwrites the block: qr copies
    # its input, and one buffer per chunk keeps a worker's heap small.
    edges = np.cumsum([0, *ranks])
    for a, b in zip(edges[:-1], edges[1:]):
        r[:, :, a:b] = np.linalg.qr(r[:, :, a:b])[0]
    return np.linalg.eigvalsh(np.swapaxes(r, 1, 2) @ r).max(axis=1)


def _null_spectrum_max(n: int, ranks: list[int], resamples: int, seq: np.random.SeedSequence) -> np.ndarray:
    """Largest squared singular value of stacks of independent random bases.

    An n x T Gaussian G factors as Q R with Q Haar and independent of R, so
    the orthonormal bases of G's column blocks are Q times those of R's; the
    stacked Gram, and with it the spectrum, is that of the T x T R alone.
    """
    return _draw([_null_sampler(n, ranks, resamples, seq)])[0]


def _wedin_sampler(
    svd: TruncatedSVD, t_i: int, resamples: int, seq: np.random.SeedSequence, n: int
) -> tuple[list, int] | None:
    """The Wedin bound's draws for one block, or None when the block has no
    residual above ``1e-12`` of its smallest signal value, so that noise
    cannot tilt its signal subspace and the bound is 0."""
    residual_sv = svd.S[t_i:]
    if residual_sv.size == 0 or float(residual_sv.max()) <= float(svd.S[t_i - 1]) * 1e-12:
        return None
    p, m = svd.U.shape[0], residual_sv.size
    return _sampler(functools.partial(_wedin_chunk, svd, t_i, n), seq, resamples, (p + t_i + m) * m**2)


def _wedin_chunk(svd: TruncatedSVD, t_i: int, n: int, children: list[np.random.SeedSequence]) -> np.ndarray:
    """One block's Wedin draws for one chunk of ``SeedSequence`` children."""
    p = svd.U.shape[0]
    residual_sv = svd.S[t_i:]
    m = residual_sv.size
    rows = t_i + min(n - t_i, m)
    u_rand, corner = np.empty((len(children), p, m)), np.empty((len(children), rows, m))
    chisquares = np.empty((len(children), rows - t_i))
    dof = n - t_i - np.arange(rows - t_i)
    for d, child in enumerate(children):
        rng = np.random.default_rng(child)
        rng.standard_normal(out=u_rand[d])
        # E = u_rand diag(residual_sv) v_rand' with v_rand a Haar n x m frame;
        # operator norms of E V-hat and U-hat' E reduce to small t x m / m x t
        # products.  V-hat' v_rand is, in law, the top t x m corner of a Haar
        # frame: the Q factor of a Gaussian whose last n - t rows enter only
        # through their Gram, a Wishart(n - t) drawn as its Bartlett factor.
        # One call draws the t Gaussian rows, then the factor's normals.
        rng.standard_normal(out=corner[d])
        chisquares[d] = rng.chisquare(dof)
    _bartlett(corner[:, t_i:], chisquares)
    u_rand = np.linalg.qr(u_rand)[0]
    corner = np.linalg.qr(corner)[0][:, :t_i]
    right = np.linalg.norm(corner * residual_sv, 2, axis=(1, 2))
    left = np.linalg.norm((svd.U[:, :t_i].T @ u_rand) * residual_sv, 2, axis=(1, 2))
    return np.minimum(1.0, np.maximum(right, left) / float(svd.S[t_i - 1]))


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
    sampler = _wedin_sampler(svd, t_i, resamples, seq, n)
    return 0.0 if sampler is None else _quantile(_draw([sampler])[0], quantile)
