"""Independent tasks spread over the CPUs the process may use.

`ordered_map` is the package's one way to use more than one core. Its
workers are forked, so a task function may be any closure: it reaches the
workers through the pool's initializer, never through a pickle. Results
come back in input order, so a caller's output does not depend on how many
workers ran it.
"""

import os
import pickle

# The function a pool worker runs its tasks with; set in workers only.
_task = None


def _cpu_count() -> int:
    """CPUs in this process's affinity mask (all CPUs where it is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_worker(fn):
    global _task
    _task = fn


def _run_task(item):
    try:
        return _task(item)
    except Exception as exc:
        # The parent rebuilds the exception from its pickle; one that cannot
        # be rebuilt would stop the pool's result thread and hang the caller.
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
        raise


def ordered_map(fn, items):
    """Yield fn(item) for each item, in input order.

    The calls run in min(CPUs, len(items)) forked worker processes. They
    run here, one after another, when that count is 1, when the `fork`
    start method is missing, when this is itself a pool worker, or when
    another thread is running: a fork copies locks that other threads may
    hold. An exception raised by `fn` reaches the caller, and the workers
    are stopped whenever the iteration ends.
    """
    items = list(items)
    workers = min(_cpu_count(), len(items))
    if workers > 1 and _task is None:
        # Imported here: most commands never start a pool, and importing
        # multiprocessing would add to every command's start-up.
        import multiprocessing
        import threading

        if (
            "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1
        ):
            context = multiprocessing.get_context("fork")
            with context.Pool(workers, _start_worker, (fn,)) as pool:
                yield from pool.imap(_run_task, items, chunksize=1)
            return
    yield from map(fn, items)
