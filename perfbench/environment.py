"""Pin the process environment and describe it in every result.

Every setting that changes what the program does — the OpenMP thread
count and wait policy, the ``SNOWFLAKE_*`` switches, the JIT cache — is
chosen here rather than inherited from the caller, and the choice is
recorded.  ``OMP_WAIT_POLICY=passive``: under the default policy idle
GOMP threads spin, and on a 2-vCPU host they compete with the Python
thread dispatching the next kernel (ROADMAP.md records the 64^3 Fig. 9
ratio at 0.11 with the default policy, 0.45 with passive).  The per-call
fork/join cost stays visible as ``omp.coarse_us_per_call``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: prefixes of the variables the benchmark owns; inherited values are
#: dropped (and recorded) so the program runs with its defaults
OWNED_PREFIXES = ("SNOWFLAKE_", "OMP_", "GOMP_")

OMP_WAIT_POLICY = "passive"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin() -> dict[str, str]:
    """Drop inherited ``SNOWFLAKE_*``/``OMP_*``/``GOMP_*`` variables and set
    the OpenMP ones; returns what was dropped.  Call before importing
    numpy or repro, which read some of them at load time."""
    dropped = {
        k: os.environ.pop(k)
        for k in sorted(os.environ)
        if k.startswith(OWNED_PREFIXES)
    }
    os.environ["OMP_NUM_THREADS"] = str(nproc())
    os.environ["OMP_WAIT_POLICY"] = OMP_WAIT_POLICY
    return dropped


def fresh_cache(workdir: Path) -> Path:
    """Point the JIT at a new empty private cache directory."""
    d = Path(tempfile.mkdtemp(prefix="jit-", dir=workdir))
    os.environ["SNOWFLAKE_CACHE_DIR"] = str(d)
    return d


def cache_contents(d: Path) -> dict[str, int]:
    """Counts read back from a private JIT cache after a set-up.

    Every miss compiles one ``sf_<tag>.so`` from one ``sf_<tag>.c``, so
    in a fresh directory these are the compile count and the generated
    source size, measured without touching the program.
    """
    so = [p for p in d.glob("sf_*.so") if not p.name.endswith(".tmp.so")]
    return {
        "cc_count": len(so),
        "source_bytes": sum(p.stat().st_size for p in d.glob("sf_*.c")),
        "tune_winners": len(list(d.glob("sf_tune_*"))),
    }


def cpu_pressure() -> str | None:
    try:
        return Path("/proc/pressure/cpu").read_text().strip()
    except OSError:
        return None


def _first_line(cmd: list[str], cwd: Path | None = None) -> str | None:
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, cwd=cwd
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0 or not proc.stdout:
        return None
    return proc.stdout.splitlines()[0].strip()


def source_digest(src: Path) -> str:
    """sha256 over every ``*.py`` under ``src`` (path and bytes), so two
    results can be matched to the same program without git."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def describe(root: Path, dropped: dict[str, str]) -> dict:
    """The environment block stamped into every result."""
    import numpy as np

    git = None
    if (root / ".git").exists():
        git = _first_line(["git", "rev-parse", "HEAD"], cwd=root)
    return {
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "omp": {k: v for k, v in os.environ.items() if k.startswith("OMP_")},
        "SNOWFLAKE_TELEMETRY": os.environ.get("SNOWFLAKE_TELEMETRY"),
        "SNOWFLAKE_TUNED": os.environ.get("SNOWFLAKE_TUNED"),
        "dropped_env": dropped,
        "gcc": _first_line(["gcc", "--version"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": git,
        "source_sha256": source_digest(root / "src"),
    }
