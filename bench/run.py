"""Benchmark of ``rsa_exh``: one command, two workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):

* ``fit-compare``: ``compare`` of all nine models on a 480-row synthetic
  dataset (fit -> Nelder-Mead -> ``_packed_loglik`` -> ``predict_table``);
* ``prior-scan``: per parameter draw and model, ``scan_regions`` for the three
  predicates and a 99-point ``sweep``; per round, ``predict_table`` on a
  1e6-point grid and the CLI subcommands ``synth``, ``sweep``, ``check`` and
  ``simulate`` run in-process.

Every process starts from a fresh interpreter with BLAS/OpenMP threads pinned
to 1.  A run makes one untimed warm-up process, ``SETUP_SAMPLES`` set-up
processes, then one measuring process: untraced closed-loop rounds for
``--seconds`` seconds (``--trace 0``), or fixed rounds untraced and then
traced with the layer wrappers of ``tracer.py`` (``--trace 1``).

Standard output: one ``{"record": ...}`` line with every metric by its
workload-specific name (``compare_s``, ``scan_ms.p50``, ``scan_ms.tail``, ...),
the environment and the errors, then the result line
``{"correct", "attempted", "failed", "metrics"}`` with the ``end_to_end``
(trace 0) or ``per_layer`` (trace 1) metrics of ``BENCHMARK.json``.  Exit code
0 when every check passed, 1 when one failed, 2 when the program or the
benchmark definition is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: The operation each workload's ``op_ms.p50`` times: a nine-model compare,
#: or the three scans and the sweep of every model at one parameter draw.
PRIMARY = {"fit-compare": "compare", "prior-scan": "scan_pass"}
SETUP_SAMPLES = 4  # plus the measuring process's own set-up
DEADLINE_S = 175  # a run must end within 180 s
STARTED = time.monotonic()


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _worker(args, phase: str, trace_dir: Path | None = None) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--phase", phase, "--seconds", str(args.seconds),
               "--spawned", repr(time.monotonic())]
    if args.toy:
        command.append("--toy")
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    timeout = max(1.0, STARTED + DEADLINE_S - time.monotonic())
    proc = subprocess.run(command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported, at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return {"value": xs[-1], "percentile": 100.0, "n": n}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
        "source_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                            for p in sorted((SRC / "rsa_exh").glob("*.py"))),
    }


def _record(workload: str, out: dict, setup: list[float]) -> dict:
    """Every end-to-end number under the name the workload gives it."""
    ops = out["ops"]
    rec = {
        "setup_s": statistics.median(setup),
        "setup_samples_s": setup,
        "peak_rss_mb": out["peak_rss_mb"],
        "failed_frac": out["failed"] / out["attempted"],
        "rounds": len(out["round_s"]),
        "round_s": statistics.median(out["round_s"]),
        "op_ms.p50": 1e3 * statistics.median(ops[PRIMARY[workload]]),
    }
    if workload == "fit-compare":
        rec["compare_s"] = statistics.median(ops["compare"])
        rec["loglik_total"] = out["values"][0]["loglik_total"]  # dataset 0, every run
        rec["loglik"] = out["values"][0]["loglik"]
        rec["loglik_total_by_round"] = [v["loglik_total"] for v in out["values"]]
    else:
        rows = sum(v["predict_rows"] for v in out["values"])
        rec["predict_Mrows_per_s"] = 1e-6 * rows / sum(ops["predict"])
        rec["scan_ms.p50"] = 1e3 * statistics.median(ops["scan"])
        scan_tail = tail(ops["scan"])
        rec["scan_ms.tail"] = {**scan_tail, "value": 1e3 * scan_tail["value"]}
        rec["sweep_ms.p50"] = 1e3 * statistics.median(ops["sweep"])
        rec["cli_cmd_ms.p50"] = 1e3 * statistics.median(ops["cli"])
    return rec


def _check_repeats(out: dict) -> None:
    """Fit-compare rounds on the same dataset must find the same optima."""
    totals = {}
    for v in out["values"]:
        if "loglik_total" in v:
            totals.setdefault(v["dataset"], set()).add(v["loglik_total"])
    for dataset, seen in totals.items():
        if len(seen) > 1:
            out["failed"] += 1
            out["errors"].append(f"loglik_total on dataset {dataset} differs between "
                                 f"rounds: {sorted(seen)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small inputs and one set-up sample (used by selftest.py)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rsa_exh" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'rsa_exh'} and {spec_path}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    _worker(args, "warmup")
    setup = [_worker(args, "setup")["setup_s"]
             for _ in range(1 if args.toy else SETUP_SAMPLES)]
    if args.trace:
        trace_dir = ROOT / ".bench_build" / "trace" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        out = _worker(args, "trace", trace_dir=trace_dir)
        values = out["per_layer"]
        wanted = spec["per_layer"]
    else:
        out = _worker(args, "measure")
        setup.append(out["setup_s"])
        values = _record(args.workload, out, setup)
        wanted = spec["end_to_end"]
    _check_repeats(out)

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "errors": out["errors"][:20], **values}
    print(json.dumps({"record": record}))
    for line in out["errors"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
