"""Traced run of one workload: ``ktseg.cli.main`` in-process under the span recorder.

Usage: ``python -m perfbench.traced SPEC_JSON SECONDS OUT_JSON``, with ``src``
and the checkout root on ``PYTHONPATH``. Even passes (and the smoke job) are
traced and odd passes are not; the difference between their median work-job
times is the tracing overhead. Spans are kept in memory and written to
``spans.json`` next to OUT_JSON at the end.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from .runner import InProcessExecutor, run_passes
from .tracer import Tracer, layer_metrics
from .workloads import Checker


def main(argv: list[str]) -> int:
    spec_path, seconds, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    executor = InProcessExecutor(tracer)
    results = run_passes(spec, executor, Checker(), float(seconds), min_passes=2)
    work = [r for r in results if r.kind == "work"]
    traced = [r.wall_s for r in work if executor.traces(r.pass_index)]
    untraced = [r.wall_s for r in work if not executor.traces(r.pass_index)]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = layer_metrics(tracer.spans, tracer.errors, executor.traced_work, overhead)
    out = Path(out_path)
    out.with_name("spans.json").write_text(
        json.dumps([asdict(s) for s in tracer.spans]), encoding="utf-8")
    out.write_text(json.dumps({"jobs": [asdict(r) for r in results], "metrics": metrics}),
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
