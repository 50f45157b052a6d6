"""Shared pieces of the workloads: running the CLI in-process, statistics,
input seeds, and the record of checks a run makes."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass


def input_seed(seed: int, *path) -> int:
    """Seed handed to the program for one input, derived by the benchmark
    from the workload seed so the program only ever sees generated values."""
    text = "/".join(str(p) for p in (seed, *path))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little")


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(values) -> float:
    """Median, 0.0 for no samples (a layer the workload does not reach)."""
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, max(0, math.ceil(q / 100 * len(xs)) - 1))]


class _StampedOutput(io.TextIOBase):
    """Text sink that records the clock at every newline, so the time
    between a command's output lines can be read off without touching the
    program."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        n = s.count("\n")
        if n:
            now = time.perf_counter()
            self.stamps.extend([now] * n)
        return len(s)


class SpeedProbe:
    """Speed of the core this process runs on, sampled between commands.

    Each sample times a fixed pure-Python walk over a pseudo-random graph
    built once here; it allocates little beyond its stack list and
    runs with the collector off, so the program's heap cannot slow it.  On
    a shared host the core switches between a fast state and one up to
    about twice as slow (other tenants' load), and the share of slow time
    drifts over minutes; ``slowdown`` is the mean walk time between two
    marks over ``REFERENCE_S``, so a time divided by it reads as on a core
    where one walk takes ``REFERENCE_S``.
    """

    NODES = 1500
    PER_SAMPLE = 10  # walks per ``sample``
    # About the fastest walk seen on a 2-vCPU x86_64 cloud host (CPython 3.11).
    REFERENCE_S = 0.3e-3

    def __init__(self):
        x, adj = 12345, []
        for _ in range(self.NODES):
            out = []
            for _ in range(3):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                out.append(x % self.NODES)
            adj.append(tuple(out))
        self._adj = adj
        self._seen = [0] * self.NODES
        self._visit = 0
        self.samples: list[float] = []

    def _walk(self) -> int:
        self._visit += 1
        adj, seen, visit = self._adj, self._seen, self._visit
        stack, total = [0], 0
        while stack:
            v = stack.pop()
            if seen[v] == visit:
                continue
            seen[v] = visit
            total += v
            for w in adj[v]:
                if seen[w] != visit:
                    stack.append(w)
        return total

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.PER_SAMPLE):
                start = time.perf_counter()
                self._walk()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, begin: int, end: int) -> float:
        """Mean walk time from mark ``begin`` to mark ``end`` over
        ``REFERENCE_S``."""
        return statistics.mean(self.samples[begin:end]) / self.REFERENCE_S


@dataclass
class CliRun:
    argv: list[str]
    code: int | None  # None when the command raised
    lines: list[str]
    stamps: list[float]  # clock at each output line
    start: float
    end: float
    stderr: str
    error: str | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_cli(main, argv: list[str]) -> CliRun:
    """``playlab <argv>`` in this process, timed from call to return."""
    out, err = _StampedOutput(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # an escaped exception is a failed op, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
        end = time.perf_counter()
    lines = "".join(out.parts).splitlines()
    return CliRun(argv, code, lines, out.stamps, start, end, err.getvalue(), error)


class Checks:
    """Outcome of a run's correctness checks, one entry per check name.
    Hard checks decide ``correct``; soft ones (values against the
    reference) are shown but do not fail the run."""

    def __init__(self, reference: dict | None = None):
        self.hard: dict[str, list] = {}  # name -> [ok, times checked, first failure]
        self.soft: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.reference = reference  # values recorded for this workload and seed
        self.recorded: dict[str, object] = {}  # what this run would record

    @staticmethod
    def _note(table, name, ok, detail):
        entry = table.setdefault(name, [True, 0, ""])
        entry[1] += 1
        if not ok and entry[0]:
            entry[0], entry[2] = False, detail
        return ok

    def require(self, name: str, ok: bool, detail: str = "") -> bool:
        return self._note(self.hard, name, bool(ok), detail)

    def compare(self, name: str, ok: bool, detail: str = "") -> None:
        self._note(self.soft, name, bool(ok), detail)

    def expect(self, name: str, value, hard: bool = True) -> None:
        """Record ``value`` and, when there is a reference for this seed,
        compare it; a soft mismatch is shown but does not fail the run."""
        self.recorded[name] = value
        if self.reference is None:
            return
        want = self.reference.get(name)
        detail = "" if want == value else f"got {value!r}, reference {want!r}"
        (self.require if hard else self.compare)(f"reference {name}", want == value, detail)

    def op(self, ok: bool, n: int = 1) -> None:
        """Count ``n`` operations that succeeded (``ok``) or failed."""
        self.attempted += n
        self.failed += 0 if ok else n

    @property
    def correct(self) -> bool:
        return all(ok for ok, _, _ in self.hard.values())

    def lines(self) -> list[str]:
        out = []
        for label, table, bad in (("check", self.hard, "FAIL"), ("compare", self.soft, "MISMATCH")):
            for name, (ok, n, detail) in table.items():
                good = "ok" if label == "check" else "match"
                out.append(f"{label} {name}: {good if ok else bad} (x{n}){' ' + detail if detail else ''}")
        return out
