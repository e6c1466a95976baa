"""One repetition of a battery, in a fresh process, as ``safebo run`` runs it.

``run.py`` starts this script once per repetition, so every repetition
pays the import, first-call costs and empty caches a user's process pays,
and no cache carries over from one repetition to the next.  It reads the
config document from standard input, emits into ``--out`` and prints one
JSON object: the import time, the battery's wall time, the tracer's
figures, the step durations of an untraced repetition, the intervals
reset after confidence collapses, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class ResetCounter(logging.Handler):
    """Counts intervals reset after a confidence collapse, from the log."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.intervals = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "collapse" in str(record.msg):
            self.intervals += int(record.args[0]) if record.args else 1


def run_battery(document: dict, out_dir: Path, tracer) -> float:
    """One battery as ``safebo run`` executes it; returns its wall time."""
    from safebo import harness

    with tracer:
        start = time.perf_counter()
        config = harness.ExperimentConfig.from_dict(document)
        result = harness.run_experiment(config, jobs=1)
        harness.emit(result, out_dir)
        return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    document = json.load(sys.stdin)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import safebo.harness  # noqa: F401

    import_s = time.perf_counter() - start
    from layers import BOUNDARIES, LAYERS, STEP
    from tracer import Tracer

    resets = ResetCounter()
    logging.getLogger("safebo.confidence").addHandler(resets)
    step = Tracer.key(*STEP)
    tracer = Tracer(LAYERS) if args.trace else Tracer(BOUNDARIES, keep_durations=(step,))
    wall = run_battery(document, args.out, tracer)
    stats = tracer.stats.get(step)
    print(
        json.dumps(
            {
                "import_s": import_s,
                "wall_s": wall,
                "figures": tracer.read(),
                "missing": tracer.missing,
                "step_ns": stats.durations_ns if stats and not args.trace else [],
                "collapse_resets": resets.intervals,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
