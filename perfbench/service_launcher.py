"""Start ``repro serve`` the way the benchmark measures it.

    python3 perfbench/service_launcher.py --rss-out F [--trace-out T] -- <serve args>

Runs the program's own ``repro serve`` entry point in this process. With
``--trace-out`` it first installs the benchmark's wrappers on a
thread-safe in-memory recorder (see ``layers.py``) and writes the recorded
spans and counts to that file once, at shutdown. SIGTERM stops the
service cleanly (workers and HTTP server joined); the process's peak
resident set size is written to ``--rss-out`` on the way out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [arg for arg in args.serve_args if arg != "--"]
    recorder = None
    if args.trace_out:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder, service=True)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as cli_main

    try:
        code = cli_main(["serve", *serve_args])
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)
        Path(args.rss_out).write_text(json.dumps({"peak_rss_mb": _peak_rss_mb()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
