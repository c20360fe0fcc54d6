"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Checks that
1. the per-layer metrics of ``BENCHMARK.json`` are the ones ``tracer.py``
   computes, and its workloads the ones ``run.py`` knows;
2. every workload runs at toy size, traced and untraced, passes its checks
   and prints exactly the metric names and units of ``BENCHMARK.json``;
3. the count metrics repeat exactly between two traced runs at one seed;
4. a deliberately corrupted prediction table trips the oracle check;
5. without the program's source next to it the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_spec(spec: dict) -> None:
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(tracer.PER_LAYER), "per_layer differs from tracer.PER_LAYER"
    assert [w["name"] for w in spec["workloads"]] == list(run.PRIMARY), "workloads differ"


def check_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"]),
                              (1, spec["per_layer"])):
            if trace and counts and workload == "fit-compare":
                continue  # its traced run repeats a 20 s compare in-process already
            code, lines = bench(workload, trace)
            result = json.loads(lines[-1])
            assert code == 0 and result["correct"], f"{workload} trace={trace}: {lines[-2:]}"
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in wanted], f"{workload}: metric names"
            assert all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted), "units"
            if not trace:
                assert all(v["value"] > 0 for v in metrics.values()), f"{workload}: zero metric"
            else:
                counts.append({k: metrics[k]["value"] for k in tracer.COUNTS})
            print(f"ok: {workload} trace={trace}: {result['attempted']} operations")
        assert all(c == counts[0] for c in counts), f"{workload}: counts did not repeat"


def check_oracle_trips() -> None:
    import rsa_exh.models
    import workloads

    scan = workloads.PriorScan(SEED, toy=True)
    scan.setup()
    assert scan.round(0).failed == 0, "a clean round failed"
    original = rsa_exh.models.predict_table

    def corrupted(model, params, p):
        table = original(model, params, p)
        return dataclasses.replace(table, post_a=table.post_a + 1e-6)

    patched = tracer.patch(original, corrupted)
    workloads.predict_table = corrupted
    try:
        result = scan.round(0)
    finally:
        workloads.predict_table = original
        for module, attr in patched:
            setattr(module, attr, original)
    assert result.failed == 9 and all("from the oracle" in e for e in result.errors), \
        result.errors[:3]
    print("ok: a corrupted prediction table fails the oracle check on all nine models")


def check_bare_checkout() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench("prior-scan", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not lines, (code, lines)
    print(f"ok: without the source the benchmark exits with code {code} and prints nothing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_bare_checkout()
    check_oracle_trips()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
