"""The scan's fork pool and atomic output file.  Only `scan` runs them, so
the CLI imports this module when a scan starts; it imports no other part
of the package."""

from __future__ import annotations

import contextlib
import marshal
import os
import sys


def _work(fn, tasks: list, feed_r: int, out_fd: int) -> None:
    """A forked worker: run the task of each index read from `feed_r`, send
    index, length and `marshal.dumps(result)` to `out_fd`, and leave through
    `os._exit`, with 1 and the traceback on stderr if a task raised.  A
    Ctrl-C reaches the whole process group; the worker ignores it, and the
    parent alone reports it and kills the workers."""
    import signal  # already loaded by fan_out

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 1
    try:
        with open(out_fd, "wb") as out:
            # Each index is one 4-byte write, atomic in POSIX, and a 4-byte
            # read of a pipe of such writes returns one whole write (as on
            # Linux and the BSDs): each worker's read takes its own index.
            while index := os.read(feed_r, 4):
                data = marshal.dumps(fn(tasks[int.from_bytes(index, "little")]))
                out.write(index + len(data).to_bytes(8, "little") + data)
                out.flush()
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # line-buffered: out before _exit
    finally:
        os._exit(code)


def _merge(n: int, feed_w: int, pids: dict[int, int]):
    """The n results, in task order, of the workers whose result pipes key
    `pids`.  The feed gets two indices per worker, then one per result back:
    its few unread bytes fit any pipe buffer, so no write to it blocks.  A
    worker that exits raises ChildProcessError."""
    import select

    sent = min(2 * len(pids), n)
    for i in range(sent):
        os.write(feed_w, i.to_bytes(4, "little"))
    buffers, done, head = {fd: bytearray() for fd in pids}, {}, 0
    while head < n:
        for fd in select.select(list(buffers), [], [])[0]:
            if not (chunk := os.read(fd, 1 << 16)):
                status = os.waitstatus_to_exitcode(os.waitpid(pids[fd], 0)[1])
                raise ChildProcessError(f"scan worker {pids.pop(fd)} exited with status {status}")
            buf = buffers[fd]
            buf += chunk
            while len(buf) >= 12 and len(buf) >= (end := 12 + int.from_bytes(buf[4:12], "little")):
                done[int.from_bytes(buf[:4], "little")] = marshal.loads(buf[12:end])
                del buf[:end]
                if sent < n:
                    os.write(feed_w, sent.to_bytes(4, "little"))
                    sent += 1
        while head in done:
            yield done.pop(head)
            head += 1


@contextlib.contextmanager
def fan_out(fn, tasks: list, jobs: int):
    """Yield fn(task) for each task, lazily and in task order: in this process
    when w = min(jobs, tasks, CPUs) <= 1 or the platform cannot fork, else
    from w forked workers, each taking the next unstarted task whenever it
    finishes one; their results must be values `marshal` carries.  On every
    exit path every descriptor is closed and every worker killed and reaped.

    CPUs counts the CPUs this process may run on (its affinity mask), or
    all of the machine's where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(jobs, len(tasks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        yield map(fn, tasks)
        return
    import signal

    feed_r, feed_w = os.pipe()
    fds = [feed_r, feed_w]  # the descriptors this process has yet to close
    pids: dict[int, int] = {}  # result pipe -> worker not yet reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            fds += (r, w)
            if (pid := os.fork()) == 0:
                os.close(feed_w)  # so the feed ends, and the worker, if this process dies
                _work(fn, tasks, feed_r, w)
            pids[r] = pid
            fds.remove(w)
            os.close(w)
        yield _merge(len(tasks), feed_w, pids)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@contextlib.contextmanager
def atomic_writer(path: str):
    """Yield the `write` of a text file that becomes `path` when the block
    ends without error.  Errors name `path`, not the file written.

    A missing path or a regular file, also at the end of a symlink, is
    written as a temporary file in the target's directory and renamed onto
    the target, so a failed run leaves any previous file untouched and no
    partial file behind, and a symlink keeps its target.  The temporary
    name holds the pid and a random token, drawn again while a file of
    that name exists: one left by a killed run is not touched.  Any other
    existing path (a FIFO, a device) is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        try:
            fh = open(target, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _naming(exc, path) from None
        with fh:
            yield fh.write
        return
    directory, name = os.path.split(target)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
        try:
            fh = open(tmp, "x", encoding="utf-8", newline="")
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise _naming(exc, path) from None
    try:
        with fh:
            yield fh.write
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _naming(exc: OSError, path: str) -> OSError:
    """`exc` naming the file the user asked for, not the temporary one."""
    return OSError(exc.errno, exc.strerror, path)
