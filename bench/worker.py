"""One benchmark process: import the program, set up a workload, run it.

Started by ``run.py`` in a fresh interpreter; prints one JSON object as its
last line of standard output.  Phases:

* ``setup``: stop when the inputs are ready (a ``setup_s`` sample);
* ``warmup``: also run the workload's untimed warm-up, then stop;
* ``measure``: closed-loop rounds for ``--seconds`` seconds, untraced;
* ``trace``: a fixed number of rounds, each untraced and then traced, then
  the first round traced once more to check that counts repeat.  The
  ``trace.*`` metrics compare the time in timed operations of the traced and
  the untraced rounds, and the part of it that no span covers.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _merge(into: dict, result) -> None:
    for kind, samples in result.ops.items():
        into["ops"].setdefault(kind, []).extend(samples)
    into["attempted"] += result.attempted
    into["failed"] += result.failed
    into["errors"].extend(result.errors[:5])
    into["values"].append(result.values)


def _measure(workload, seconds: float) -> dict:
    out = {"ops": {}, "attempted": 0, "failed": 0, "errors": [], "round_s": [], "values": []}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        result = workload.round(k)
        _merge(out, result)
        out["round_s"].append(result.busy_s)
        k += 1
        if time.perf_counter() >= deadline:
            return out


def _trace(workload, trace_dir: Path) -> dict:
    import tracer

    rounds = workload.trace_rounds
    out = {"ops": {}, "attempted": 0, "failed": 0, "errors": [], "values": []}
    rec = tracer.Tracer()

    def traced(run, fn, *args):
        rec.run = run
        uninstall = tracer.install(rec)
        try:
            return fn(*args)
        finally:
            uninstall()

    traced(0, workload.setup)  # again, traced: the data layer runs here
    untraced = busy = 0.0
    windows = []
    for k in range(rounds):  # alternate, so that drifts in machine speed cancel
        result = workload.round(k)
        _merge(out, result)
        untraced += result.busy_s
        result = traced(k + 1, workload.round, k)
        _merge(out, result)
        busy += result.busy_s
        windows += result.windows
    _merge(out, traced(rounds + 1, workload.round, 0))
    rec.dump(trace_dir / "spans.json")

    layers = tracer.layer_metrics(rec.spans, set(range(rounds + 1)))
    first = tracer.layer_metrics(rec.spans, {1})
    again = tracer.layer_metrics(rec.spans, {rounds + 1})
    for name in tracer.COUNTS:
        if first[name] != again[name]:
            out["failed"] += 1
            out["errors"].append(f"count {name} did not repeat: {first[name]} then {again[name]}")
    layers["trace.wall_s"] = busy
    layers["trace.overhead_s"] = busy - untraced
    layers["trace.unattributed_s"] = busy - tracer.time_in_windows(rec.spans, windows)
    out["per_layer"] = layers
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "warmup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it spawned us")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    begin = time.perf_counter()
    import rsa_exh.cli  # noqa: F401  the program's own import, as every caller pays it
    import_s = time.perf_counter() - begin
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.toy)
    workload.setup()
    out = {"setup_s": time.monotonic() - args.spawned,
           "python_startup_s": STARTED - args.spawned, "import_s": import_s}
    if args.phase != "setup":
        workload.prepare_checks()
        workload.warmup()
    if args.phase == "measure":
        out.update(_measure(workload, args.seconds))
    elif args.phase == "trace":
        out.update(_trace(workload, Path(args.trace_dir)))
        out["per_layer"]["cli.python_startup_s"] = out["python_startup_s"]
        out["per_layer"]["cli.import_s"] = import_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
