"""One round of one workload in a fresh interpreter.

Started by run.py, never by hand. Times are stamps of the system-wide
monotonic clock, so the parent can measure from the moment it started this
process. The result goes to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", action="store_true",
                        help="set up only: loads modules and files into the caches")
    args = parser.parse_args()

    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.inputs), Path(args.out), tr)
    wl.setup()
    t_ready = time.monotonic()

    src = Path(__file__).resolve().parent.parent / "src"
    import cmatch
    if not Path(cmatch.__file__).resolve().is_relative_to(src):
        print(f"cmatch imported from {cmatch.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.warmup:
        return 0

    t_start = time.monotonic()
    wl.run()
    t_end = time.monotonic()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr.uninstall()

    layers = None
    if tr.enabled:
        # matching.snapshot_s: each default-spacing run_policy call minus the
        # same call without snapshots
        from cmatch import matching
        snapshot_s = 0.0
        for call_args, call_kwargs, seconds in tr.default_spacing_calls:
            kwargs = dict(call_kwargs, checkpoint_every=workloads.SNAPSHOTS_OFF)
            t0 = time.monotonic()
            matching.run_policy(*call_args[:4], **kwargs)
            snapshot_s += seconds - (time.monotonic() - t0)
        layers = tracing.layer_metrics(tr, snapshot_s)
    failures = wl.failures()
    t_checked = time.monotonic()

    result = {
        "t_ready": t_ready,
        "t_start": t_start,
        "t_end": t_end,
        "excluded_s": t_checked - t_end,
        "maxrss_kib": maxrss_kib,
        "units": wl.units,
        "ops": wl.ops,
        "failures": failures,
        "layers": layers,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
