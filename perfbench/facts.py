"""Machine and run facts stamped on every benchmark record.

Two records are comparable only when their machine facts and the
benchmark's own version agree: a number measured on one core says nothing
about two, and a record from another numpy is a different program.
:func:`comparable` is the one rule; ``compare.py`` refuses to compare
records it rejects.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

__all__ = ["BENCH_VERSION", "comparable", "machine_facts", "run_facts"]

#: Bumped whenever a workload or a metric definition changes meaning.
BENCH_VERSION = 1

MACHINE_KEYS = ("nproc", "cpu_model", "ram_gb", "python", "numpy", "os")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ram_gb() -> float:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return round(int(line.split()[1]) / 2**20, 1)
    except OSError:
        pass
    return 0.0


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_gb": _ram_gb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os": platform.system() + " " + platform.release(),
    }


def _git_commit(root: Path) -> str | None:
    # Never look above the checkout: it need not be a repository at all.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source tree (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_facts(root: Path, *, workload: str, seed: int, heldout: bool, trace: int,
              seconds: int) -> dict:
    return {
        "bench_version": BENCH_VERSION,
        "workload": workload,
        "seed": seed,
        "seed_stream": "heldout" if heldout else "development",
        "trace": trace,
        "run_seconds": seconds,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons two records may not be compared (empty when they may)."""
    reasons = []
    for key in MACHINE_KEYS:
        if a["machine"].get(key) != b["machine"].get(key):
            reasons.append(
                f"machine {key} differs: {a['machine'].get(key)!r} vs {b['machine'].get(key)!r}"
            )
    for key in ("bench_version", "workload", "trace", "run_seconds"):
        if a["run"].get(key) != b["run"].get(key):
            reasons.append(f"run {key} differs: {a['run'].get(key)!r} vs {b['run'].get(key)!r}")
    return reasons
