"""What importing ``repro`` loads: the cold import set of a fresh process.

``scipy.stats`` alone roughly doubles the package's import time and adds
~45 MB of resident memory, and only the analysis uses it, so no module may
import it (or the other heavy scipy subpackages) at load. The check runs in
a fresh interpreter: this pytest process already holds ``scipy.stats``
through the statistical tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

HEAVY = ("scipy.stats", "scipy.sparse", "scipy.linalg", "scipy.optimize", "scipy.spatial")

SCRIPT = textwrap.dedent(
    """
    import importlib, json, math, pkgutil, sys

    import repro

    modules = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    for name in modules:
        importlib.import_module(name)
    loaded = sorted(name for name in HEAVY if name in sys.modules)

    from repro.analysis.coins import (
        BERRY_ESSEEN_C, berry_esseen_underdog_bound, binomial_pmf,
    )

    pmf = binomial_pmf(5, 0.3)
    bound = berry_esseen_underdog_bound(100, 0.4, 0.5)

    from scipy.stats import binom, norm

    sigma = math.sqrt(0.4 * 0.6 + 0.5 * 0.5)
    z = math.sqrt(100) * (0.5 - 0.4) / sigma
    print(json.dumps({
        "modules": len(modules),
        "loaded": loaded,
        "pmf_exact": bool((pmf == binom.pmf(range(6), 5, 0.3)).all()),
        "bound_exact": bound == 1.0 - float(norm.cdf(z)) - BERRY_ESSEEN_C / (sigma * math.sqrt(100)),
    }))
    """
)


def test_no_repro_module_loads_heavy_scipy_and_numbers_stay_exact():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n" + SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["modules"] > 50
    assert seen["loaded"] == []
    assert seen["pmf_exact"] and seen["bound_exact"]
