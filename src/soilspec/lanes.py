"""Worker lanes: the one way `generate`, `extract` and `evaluate` spread work
over `--threads`. A fork is safe only while no other thread runs, so nothing
in the package starts one."""

from __future__ import annotations

import os
import pickle
import signal

from .errors import SoilspecError


def _run_chunk(func, chunk) -> list:
    """`func` over `chunk` up to its first failure: the results, then its exception."""
    done: list = []
    for item in chunk:
        try:
            done.append(func(item))
        except Exception as exc:  # raised again, in item order, by the merge
            return done + [exc]
    return done


def map_in_lanes(func, items: list, threads: int, describe) -> list:
    """``[func(item) for item in items]`` on min(threads, items) lanes.

    This process runs the first of as many contiguous chunks, and an `os.fork`
    child each other one, which pipes back its pickled results. Every lane
    stops at its first failure, and one merge raises the earliest in item
    order, so results and errors equal those of one lane, which forks nothing,
    as on a platform without `os.fork`. A child that exits before it sends
    its results fails naming its chunk by `describe(chunk)`.
    """
    lanes = min(threads if hasattr(os, "fork") else 1, len(items))
    chunks = [items[len(items) * i // lanes:len(items) * (i + 1) // lanes]
              for i in range(lanes)]
    results: list = []
    children = []  # (pid, read end of its pipe), in lane order
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # a lane exits 0 only once its whole payload is sent
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(_run_chunk(func, chunk), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for lane, chunk in enumerate(chunks):
            if lane == 0:
                outcomes = _run_chunk(func, chunk)
            else:
                pid, pipe = children[0]
                with pipe:
                    payload = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
                if code != 0:
                    raise SoilspecError(f"the worker {describe(chunk)} exited with "
                                        f"status {code} before it sent its results")
                outcomes = pickle.loads(payload)
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
                results.append(outcome)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
