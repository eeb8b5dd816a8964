"""``serve`` and ``cluster route`` stop on SIGTERM as they do on Ctrl-C.

Each test starts the real command in a subprocess, sends SIGTERM and
expects the drain path: its goodbye line on stdout and exit status 0.
"""

import os
import re
import signal
import subprocess
import sys

_BANNER_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def terminate(argv):
    """Start ``python -m repro ARGV``, SIGTERM it once the banner is
    printed, and return ``(exit status, stdout after the banner)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        stdout=subprocess.PIPE, text=True, env=env, cwd=_REPO_ROOT,
    )
    try:
        banner = proc.stdout.readline()
        assert _BANNER_PORT.search(banner), f"no port in banner: {banner!r}"
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    return proc.returncode, rest


class TestStopSignal:
    def test_serve_drains_on_sigterm(self, tmp_path):
        status, out = terminate(
            ["serve", "--port", "0", "--workers", "1", "--log-format", "off",
             "--jobs-dir", str(tmp_path / "jobs")])
        assert status == 0
        assert "draining..." in out
        assert "drained and stopped" in out

    def test_cluster_route_stops_on_sigterm(self, tmp_path):
        # Nothing listens on port 9: the router starts, marks the
        # replica down in the background and still stops cleanly.
        status, out = terminate(
            ["cluster", "route", "--port", "0", "--replica", "127.0.0.1:9",
             "--state-dir", str(tmp_path / "router-state"),
             "--log-format", "off"])
        assert status == 0
        assert "stopping router..." in out
        assert "router stopped" in out
