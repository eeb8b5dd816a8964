"""Run ``python -m repro serve`` as a subprocess and read its /proc counters."""

from __future__ import annotations

import http.client
import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Optional, Tuple

#: Seconds allowed for the server to print its banner and answer /healthz.
START_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_env(root: str, work: str) -> dict:
    """The server's environment: this checkout's ``src`` on the path,
    temporary files kept under *work*, and no ``REPRO_*`` overrides, so
    the server runs its defaults."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = work
    return env


class Connection:
    """One keep-alive HTTP/1.1 connection (the generator's transport)."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


class Server:
    """One ``repro serve`` process bound to an ephemeral port."""

    def __init__(self, root: str, work: str, *, trace: bool,
                 jobs_dir: Optional[str] = None) -> None:
        self.jobs_dir = jobs_dir
        args = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--log-format", "off",
                "--trace-sample", "1" if trace else "0"]
        if jobs_dir is not None:
            args += ["--jobs-dir", jobs_dir]
        self._stderr = open(os.path.join(work, "serve.stderr"), "ab")
        self.process = subprocess.Popen(
            args, cwd=root, env=child_env(root, work),
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.pid = self.process.pid
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        """Parse the bound port from the banner's first line."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                raise RuntimeError("server printed no banner")
        line = self.process.stdout.readline().decode("utf-8", "replace")
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server failed to start: {line.strip()!r} "
                               f"(see {self._stderr.name})")
        return int(line.split(marker, 1)[1].split()[0])

    def wait_healthy(self) -> None:
        """Poll ``/healthz`` until it answers 200."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            conn = Connection(self.port, timeout=5.0)
            try:
                if conn.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far (all threads)."""
        with open(f"/proc/{self.pid}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_peak_mb(self) -> float:
        """Peak resident set size (VmHWM) in MiB."""
        with open(f"/proc/{self.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL if it hangs; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()
