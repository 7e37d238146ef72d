"""Jobs on every CPU: one fork map, which ``decompose``'s factor writes,
``eval``'s inputs and the joint-rank draws share, and what it reads of the
machine (the CPUs this process may run on, and the BLAS thread settings).

A caller hands the map its jobs as labelled items with a size each, in its
own units, and its own crossover: the size that forked children must take
off the longest share before forking pays for itself.
"""

from __future__ import annotations

import logging
import os
import pickle

# The environment variables numpy's BLAS reads its thread count from at load
# time.  OpenBLAS reads the first of the first two that is set.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _blas_pinned() -> bool:
    """Whether OpenBLAS runs one thread: the variable it reads its thread
    count from (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``) reads 1."""
    openblas, omp, _ = _BLAS_THREAD_VARIABLES
    return (os.environ.get(openblas) or os.environ.get(omp)) == "1"


def _held(job, item) -> tuple[list[logging.LogRecord], Exception | None, object]:
    """Run ``job(item)`` with the records of the package's loggers held back
    from their handlers, each message formatted so that it can be emitted
    later, in another process too: returns them, the exception the job
    raised (or ``None``) and its result."""
    records: list[logging.LogRecord] = []

    def hold(record: logging.LogRecord) -> bool:
        record.msg, record.args = record.getMessage(), None
        records.append(record)
        return False

    loggers = [logging.getLogger(name) for name in ("embedjive.embed_io", "embedjive.evaluate")]
    for logger in loggers:
        logger.addFilter(hold)
    try:
        return records, None, job(item)
    except Exception as exc:  # re-raised by _forked_map, in this process or the parent
        return records, exc, None
    finally:
        for logger in loggers:
            logger.removeFilter(hold)


def _forked_map(job, items: list[str], sizes: list[float], crossover: float) -> list:
    """``[job(item) for item in items]``, in item order, with the jobs shared
    out over this process and one forked child per further CPU, up to one
    process per item.  ``items`` label the jobs; ``sizes`` weigh them in the
    caller's units (bytes of embedding text for file jobs, LAPACK work for
    draws).  Items are dealt largest size first to the least-loaded process
    (then the one with the fewest items, then this one first).  Forked
    children inherit ``job`` and what it holds instead of receiving them
    pickled.

    Each job's log records are held back and re-emitted here in item order;
    the first item, in item order, whose job raised stops that: its records
    are emitted and its exception is raised.  A child that ends without
    returning its results raises ``ChildProcessError`` naming its first
    item.  The jobs run inline, one at a time, on one CPU, for one item,
    without ``os.fork``, or when the children would take less than
    ``crossover`` off the longest share.  Every child is reaped before this
    returns or raises."""
    workers = min(_cpu_count(), len(items))
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(items)), key=sizes.__getitem__, reverse=True):
        least = min(range(workers), key=lambda w: (loads[w], len(shares[w])))
        shares[least].append(i)
        loads[least] += sizes[i]
    if workers < 2 or not hasattr(os, "fork") or sum(loads) - max(loads) < crossover:
        outcomes = (_held(job, item) for item in items)
    else:
        outcomes = _forked_outcomes(job, items, shares)
    results = []
    for records, error, result in outcomes:
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error
        results.append(result)
    return results


def _forked_outcomes(job, items: list[str], shares: list[list[int]]) -> list:
    """Each item's ``_held`` outcome: the first share's run here, every other
    share's in a forked child that pickles them back through its own pipe.
    Each pipe's write end is closed here before the next child is forked, so
    its only writer is its child.  SIGINT, which a terminal's Ctrl-C sends
    to the whole process group, is blocked across each fork and stays
    blocked in the child, so no ``KeyboardInterrupt`` can unwind through the
    child's copy of the caller's frames; one raised here kills the children.
    On an error here, children not yet reaped are killed; all are reaped."""
    import signal  # here only: importing it costs about 1 ms

    outcomes: list = [None] * len(items)
    children = []  # [pid or None once reaped, read end or None once taken, share]
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(job, items, share, write_fd)
                children.append([pid, read_fd, share])
            except OSError:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in shares[0]:
            outcomes[i] = _held(job, items[i])
        for child in children:
            pid, read_fd, share = child
            child[1] = None
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if code == 0:
                for i, outcome in zip(share, pickle.loads(payload)):
                    outcomes[i] = outcome
                continue
            ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            error = ChildProcessError(f"the worker process for {items[share[0]]} {ended} before returning its results")
            for i in share:
                outcomes[i] = ([], error, None)
    finally:
        for pid, read_fd, _ in children:
            if read_fd is not None:
                os.close(read_fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes


def _run_share(job, items: list[str], share: list[int], write_fd: int):
    """A forked child's life, with SIGINT blocked: run its share's jobs,
    write their outcomes to ``write_fd`` pickled, and leave by ``os._exit``
    (status 0 only once they are written), so that neither the parent's
    buffered output is flushed nor its exit handlers run here."""
    status = 1
    try:
        payload = pickle.dumps([_held(job, items[i]) for i in share], pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
