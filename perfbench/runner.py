"""Running jobs: as ktseg CLI subprocesses, or in-process through ktseg.cli.main.

Both executors return one ``StepResult`` per step and stop a job at its first
failing step. ``run_passes`` runs the smoke job, then whole passes until the
time is up, and checks every job as soon as it has run.
"""

from __future__ import annotations

import contextlib
import io as _io
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

#: A step still running after this many seconds is killed and fails its job.
STEP_TIMEOUT_S = 90.0


@dataclass
class StepResult:
    returncode: int
    stdout: str
    wall_s: float
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0


@dataclass
class JobResult:
    name: str
    kind: str
    pass_index: int
    passed: bool
    detail: str
    f1: float | None
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str], env: dict, timeout: float = STEP_TIMEOUT_S) -> StepResult:
    """Run ``argv`` to completion and take its rusage from ``os.wait4``.

    ``wait4`` gives this child's own CPU time and peak RSS; RUSAGE_CHILDREN
    would give a high-water mark over every child so far.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", errors="replace")
    return StepResult(proc.returncode, text, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


class SubprocessExecutor:
    """Each step is ``python -m ktseg <argv>`` in a fresh interpreter."""

    def __init__(self, env: dict):
        self.env = env

    def run(self, job: dict, pass_index: int) -> list[StepResult]:
        steps = []
        for argv in job["steps"]:
            steps.append(spawn([sys.executable, "-m", "ktseg", *argv], self.env))
            if steps[-1].returncode != 0:
                break
        return steps


class InProcessExecutor:
    """Each step is ``ktseg.cli.main(argv)`` in this process.

    Jobs of even passes and the smoke job (pass -1) run under ``tracer``;
    odd passes run untraced, which gives the tracing overhead.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.jobs = 0
        self.traced_work: set[int] = set()

    @staticmethod
    def _call(argv: list[str]) -> StepResult:
        from ktseg import cli

        buf = _io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback the CLI let escape fails the job
                print(f"{type(exc).__name__}: {exc}")
                rc = 1
        return StepResult(rc, buf.getvalue(), time.perf_counter() - start)

    @staticmethod
    def traces(pass_index: int) -> bool:
        return pass_index % 2 == 0 or pass_index < 0

    def run(self, job: dict, pass_index: int) -> list[StepResult]:
        traced = self.traces(pass_index)
        if traced and job["kind"] == "work":
            self.traced_work.add(self.jobs)
        steps = []
        with self.tracer.recording(self.jobs) if traced else contextlib.nullcontext():
            for argv in job["steps"]:
                steps.append(self._call(argv))
                if steps[-1].returncode != 0:
                    break
        self.jobs += 1
        return steps


def run_job(job: dict, executor, checker, pass_index: int) -> JobResult:
    start = time.perf_counter()
    steps = executor.run(job, pass_index)
    wall = time.perf_counter() - start
    cpu = sum(s.cpu_s for s in steps)
    rss = max(s.maxrss_mb for s in steps)
    last = steps[-1]
    if last.returncode != 0:
        passed, f1, detail = False, None, f"step {len(steps)} exited {last.returncode}: {last.stdout.strip()[-300:]}"
    else:
        passed, f1, detail = checker.check(job, [s.stdout for s in steps])
    return JobResult(job["name"], job["kind"], pass_index, passed, detail, f1, wall, cpu, rss)


def run_passes(spec: dict, executor, checker, seconds: float, min_passes: int = 1,
               between_jobs=None) -> list[JobResult]:
    """The smoke job, then whole passes until ``seconds`` have elapsed.

    ``between_jobs``, when given, is called after every job.
    """
    results = [run_job(spec["smoke"], executor, checker, -1)]
    start = time.perf_counter()
    pass_index = 0
    while True:
        for job in spec["pass"]:
            results.append(run_job(job, executor, checker, pass_index))
            if between_jobs is not None:
                between_jobs()
        pass_index += 1
        if pass_index >= min_passes and time.perf_counter() - start >= seconds:
            return results
