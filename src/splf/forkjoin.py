"""Fork-join fan-out of an ensemble's worker tasks.

`fork_join(run, tasks)` runs `run(task)` for each task in a process forked
from the caller, one process and one pipe per task.  A child inherits its
task through the fork, so nothing is pickled on the way out; it pickles
only its reply into its pipe and leaves by os._exit.  The parent reads
every pipe to EOF and reaps every child before it looks at any reply.

`integrator.simulate_ensemble` imports this module only when an ensemble
fans out, so a run that stays in one process neither compiles nor loads
it.  Where os.fork does not exist `integrator.max_workers` caps the worker
count at 1, and this module is never reached.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable, Sequence


def _serve(run: Callable, task, pipe: int, inherited: Sequence[int]) -> None:
    """Body of a child: close the read ends it inherited, run(task), and
    pickle (True, result, None) or (False, exception, traceback text) into
    the pipe; a result that cannot be pickled sends the pickling error.
    Never returns: the process leaves by os._exit, so no handler, buffer or
    finaliser that it inherited runs twice."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            reply = pickle.dumps((True, run(task), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            reply = pickle.dumps((False, exc, traceback.format_exc()),
                                 pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as out:
            out.write(reply)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def fork_join(run: Callable, tasks: Sequence) -> list:
    """run(task) of each task, each in its own forked process, in task order.

    A worker exception is re-raised here with its type and message, chained
    from a RuntimeError that holds the worker's pid and traceback text; a
    child that ends without a reply raises a RuntimeError naming its pid and
    wait status.  The first failure in task order is raised, after every
    child has been reaped.  If the parent is interrupted, or cannot fork, it
    kills and reaps every child it started before it re-raises.
    """
    # a child flushes what it printed before os._exit; what this process
    # has buffered goes out now, or each child would print it again
    sys.stdout.flush()
    sys.stderr.flush()
    pipes = {}                # pid -> read end, until the child is reaped
    replies = []
    try:
        for task in tasks:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(run, task, w, [r, *pipes.values()])
            os.close(w)
            pipes[pid] = r
        for pid, r in list(pipes.items()):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(pipes.pop(pid))
            replies.append((pid, status, data))
    finally:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        for pid, r in pipes.items():
            os.waitpid(pid, 0)
            os.close(r)
    results = []
    for pid, status, data in replies:
        if status or not data:
            raise RuntimeError(f"ensemble worker {pid} ended without a result "
                               f"(wait status {status})")
        ok, result, tb = pickle.loads(data)
        if not ok:
            raise result from RuntimeError(f"in ensemble worker {pid}:\n{tb}")
        results.append(result)
    return results
