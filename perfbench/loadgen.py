"""The load generator: an open loop, a closed loop and a job poller.

One process, at most two threads and two keep-alive connections.  Every
request leaves a record with monotonic stamps (see
:func:`stats.lateness`) plus its status and body, which the oracle
checks after the measurement window closes.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from server import Connection

#: Threads and keep-alive connections the generator may use.
CONNECTIONS = 2


def _exchange(conn: Connection, method: str, path: str,
              body: Optional[bytes]) -> Tuple[int, bytes, Optional[str]]:
    try:
        status, payload = conn.request(method, path, body)
        return status, payload, None
    except (OSError, http.client.HTTPException) as error:  # refused, reset, timed out
        return 0, b"", f"{type(error).__name__}: {error}"


def _run_threads(target: Callable[[int], None]) -> None:
    """Run ``target(0)`` .. ``target(CONNECTIONS - 1)`` on their own
    threads; re-raise the first exception any of them raised."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # handed to the main thread below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,), daemon=True)
               for index in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(port: int, path: str, items: Sequence[Tuple[float, bytes]],
              start: float) -> List[dict]:
    """Send ``items[i]`` (``(due_offset, body)``) at ``start + due_offset``.

    Whichever connection is free takes the next due request; when both
    are busy the request waits, and that wait counts in its latency
    because latency is timed from the due time.
    """
    records: List[dict] = []
    lock = threading.Lock()
    cursor = iter(range(len(items)))

    def worker(_: int) -> None:
        conn = Connection(port)
        try:
            while True:
                free = time.monotonic()
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + items[index][0]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                status, body, error = _exchange(conn, "POST", path,
                                                items[index][1])
                if error is not None:
                    conn.close()
                    conn = Connection(port)
                record = {"index": index, "due": due, "free": free,
                          "sent": sent, "done": time.monotonic(),
                          "status": status, "body": body, "error": error}
                with lock:
                    records.append(record)
        finally:
            conn.close()

    _run_threads(worker)
    records.sort(key=lambda record: record["index"])
    return records


def closed_loop(port: int, path: str, draws: Sequence[Iterator[int]],
                bodies: Sequence[bytes], until: float) -> List[dict]:
    """Each connection sends back to back until *until* (monotonic).

    Connection ``c`` sends ``bodies[k]`` for each ``k`` its endless
    iterator ``draws[c]`` yields.
    A closed-loop request is due when its predecessor on the same
    connection completed, so its lag is the generator's own turnaround;
    its latency is timed from the send.
    """
    records: List[dict] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        conn = Connection(port)
        due = time.monotonic()
        try:
            for key in draws[index]:
                sent = time.monotonic()
                if sent >= until:
                    return
                status, body, error = _exchange(conn, "POST", path,
                                                bodies[key])
                if error is not None:
                    conn.close()
                    conn = Connection(port)
                done = time.monotonic()
                record = {"key": key, "due": due, "free": due, "sent": sent,
                          "done": done, "status": status, "body": body,
                          "error": error}
                with lock:
                    records.append(record)
                due = done
        finally:
            conn.close()

    _run_threads(worker)
    return records


def poll_until(port: int, path: str, is_final: Callable[[int, bytes], bool],
               timeout: float) -> List[dict]:
    """GET *path* back to back on one connection until *is_final* says so.

    Like a closed-loop request, a poll is due when the previous one
    answered.
    """
    records: List[dict] = []
    conn = Connection(port)
    due = time.monotonic()
    deadline = due + timeout
    try:
        while True:
            sent = time.monotonic()
            status, body, error = _exchange(conn, "GET", path, None)
            done = time.monotonic()
            records.append({"due": due, "free": due, "sent": sent,
                            "done": done, "status": status,
                            "body": body, "error": error})
            due = done
            if error is None and is_final(status, body):
                return records
            if error is not None:
                conn.close()
                conn = Connection(port)
            if time.monotonic() > deadline:
                raise RuntimeError(f"{path} not final after {timeout:.0f} s")
    finally:
        conn.close()
