"""Shared machinery: spans, per-op timing, statistics and run metadata."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The trajectory CSV header as the README documents it; checked against the
# documentation, not against the program's own constant.
TRAJECTORY_HEADER = "t,re_v1,im_v1,re_v2,im_v2,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3,norm"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str          # "<layer>.<call>"; the layer is the spineq module name
    start: float
    end: float
    parent: int | None
    op_id: object
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; they are written once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id=None, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, op_id, attrs)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [sp.dur for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.dur
        return out


class NullTracer:
    """Stand-in used for untraced runs: every span is a shared no-op."""

    _null = contextlib.nullcontext()

    def span(self, name, op_id=None, **attrs):
        return self._null


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# timing and statistics
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time (user + system) of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + ch.ru_utime + ch.ru_stime


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    return float(np.percentile(values, q))


def reference_seconds() -> float:
    """Time of a fixed interpreter-bound kernel that uses no spineq code.

    Complex series arithmetic, elementwise numpy on tiny arrays (no BLAS) and
    dict updates: the kinds of work spineq's hot paths do, so the kernel
    slows down with them when the host does.
    """
    t0 = time.perf_counter()
    z, term, total = 0.3 + 0.4j, 1.0 + 0j, 0j
    for k in range(3000):
        term *= (0.5 + k) / ((1.5 + k) * (k + 1.0)) * z
        total += term
    y = np.array([0.6 + 0.1j, -0.3 + 0.7j])
    for i in range(150):
        f = np.array([0.1 * i, 0j, 1.0 + total])
        y = np.array([f[2] * y[0] + f[0] * y[1], f[0] * y[0] - f[2] * y[1]])
        y = y / np.sqrt(np.sum(np.abs(y) ** 2))
    counts = {}
    for i in range(500):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return time.perf_counter() - t0


class HostSpeed:
    """The reference kernel's latest time, re-measured at most every REFRESH_S.

    A time t measured when the kernel took r seconds is reported as
    t * REFERENCE_S / r: what it would have been on a host where the kernel
    takes REFERENCE_S. Host-speed drift divides out; a change to spineq
    moves the scaled time exactly as it moves the raw one.
    """

    REFERENCE_S = 3e-3
    REFRESH_S = 0.1

    def __init__(self):
        self.ref_s = reference_seconds()
        self.taken = time.perf_counter()

    def refresh(self) -> float:
        if time.perf_counter() - self.taken > self.REFRESH_S:
            self.ref_s = reference_seconds()
            self.taken = time.perf_counter()
        return self.ref_s

    def settled(self) -> float:
        """Median of five fresh measurements, for one-off times like set-up."""
        self.ref_s = median(reference_seconds() for _ in range(5))
        self.taken = time.perf_counter()
        return self.ref_s


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (floor p50)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n > 0 else 50.0


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int) -> dict:
    import scipy
    import spineq

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "spineq_using_compiled": bool(spineq.USING_COMPILED),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "executable": os.path.basename(sys.executable),
    }

