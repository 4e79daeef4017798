"""Benchmark the ktseg CLI end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hour_ktsf --seed 1 --seconds 20 --trace 0

Workloads: hour_ktsf, clips_csv, sweep_grid (see perfbench/workloads.py).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/bench.py and perfbench/tracer.py). The program is taken
from ``src/`` of the same checkout; without it the benchmark exits 2.
Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "ktseg" / "cli.py").is_file():
        print(f"perfbench: no ktseg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import ktseg

    if Path(ktseg.__file__).resolve().parent != SRC / "ktseg":
        print(f"perfbench: imported ktseg from {ktseg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    from perfbench.bench import main

    sys.exit(main())
