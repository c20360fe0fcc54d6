import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsa_exh
from rsa_exh.cli import run
from rsa_exh.data import parse_dataset
from rsa_exh.fitting import FIT_COLUMNS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_reference_curve(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--model", "base", "--lambda", "3",
        "--cost-ab", "0.5", "--cost-anb", "1", "--grid", "99",
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 99
    assert rows[0]["p"] == "0.01" and rows[-1]["p"] == "0.99"
    # the posterior sits above the identity line beyond the crossing
    above = [float(r["post_A"]) > float(r["p"]) for r in rows]
    assert above == [float(r["p"]) > 0.6225 for r in rows]


def test_sweep_json_and_determinism(capsys):
    argv = ("sweep", "--model", "wrsa", "--lambda", "3", "--cost-ab", "1",
            "--cost-anb", "1.2", "--xi", "0.1", "--grid", "25",
            "--format", "json")
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical on identical invocations
    payload = json.loads(out1)
    assert len(payload) == 25
    assert set(payload[0]) >= {"model", "p", "post_A", "prod_wab_AB"}


def test_params_file_with_flag_override(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"lambda": 3.0, "delta_ab": 1.0, "delta_anb": 1.2, "xi": 0.1}')
    code, out, _ = invoke(
        capsys, "check", "--model", "wrsa", "--params", str(params),
        "--predicate", "listener-anti-exh",
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2  # the two anti-exhaustivity intervals
    # overriding the wonkiness prior moves the regions
    code, out_override, _ = invoke(
        capsys, "check", "--model", "wrsa", "--params", str(params),
        "--xi", "0.9", "--predicate", "listener-anti-exh",
    )
    assert code == 0
    assert out_override != out


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_bwrsa_reports_threshold(capsys):
    code, out, _ = invoke(
        capsys, "check", "--model", "bwrsa", "--lambda", "3", "--cost-ab", "1",
        "--cost-anb", "1.2", "--xi", "0.95", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["intervals"] == []
    assert payload["omega_threshold"] == pytest.approx(0.9003, abs=5e-4)


def test_check_unknown_predicate_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--model", "base", "--lambda", "1", "--predicate", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_levels_and_rows(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--model", "wrsa", "--lambda", "3", "--cost-ab", "1",
        "--cost-anb", "1.2", "--xi", "0.1", "--p", "0.7", "--depth", "3",
    )
    assert code == 0
    rows = rows_of(out)
    levels = {int(r["level"]) for r in rows}
    assert levels == {1, 2, 3}
    # per given, probabilities are normalized
    sums = {}
    for r in rows:
        key = (r["level"], r["role"], r["given"])
        sums[key] = sums.get(key, 0.0) + float(r["probability"])
    assert all(abs(total - 1.0) < 1e-9 for total in sums.values())


def test_simulate_svrsa_depth_limited(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--model", "svrsa1", "--lambda", "1", "--xi", "0.5",
             "--p", "0.5", "--depth", "3"])
    assert exc.value.code == 2
    code, out, _ = invoke(
        capsys, "simulate", "--model", "svrsa2", "--lambda", "1", "--xi", "0.5",
        "--p", "0.5", "--depth", "2",
    )
    assert code == 0
    assert any(r["role"] == "speaker" for r in rows_of(out))


# ---------------------------------------------------------------------------
# synth / fit / compare round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = run([
        "synth", "--model", "wrsa", "--lambda", "3.9", "--cost-ab", "0",
        "--cost-anb", "0.37", "--xi", "0.86", "--sigma-a", "0.33",
        "--sigma-ab", "0.22", "--epsilon", "0.022", "--seed", "12",
        "--levels", "4", "--out", str(path),
    ])
    assert code == 0
    return path


def test_synth_output_parses(synth_file):
    dataset, errors = parse_dataset(synth_file.read_text())
    assert errors == []
    assert len(dataset) == 240  # 4 levels x (20+10+20+10)


def test_fit_csv_columns(capsys, synth_file):
    code, out, err = invoke(
        capsys, "fit", "--model", "wrsa", "--data", str(synth_file),
        "--restarts", "3", "--seed", "1",
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == FIT_COLUMNS
    assert rows[0]["model"] == "wrsa"
    assert rows[0]["converged"] == "true"


def test_compare_subset_sorted_by_aic(capsys, synth_file):
    code, out, _ = invoke(
        capsys, "compare", "--models", "base,wrsa", "--data", str(synth_file),
        "--restarts", "3", "--seed", "1", "--equal-costs",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["model"] for r in rows[:2]] != []
    aics = [float(r["aic"]) for r in rows]
    assert aics == sorted(aics)


def test_out_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = invoke(
        capsys, "sweep", "--model", "base", "--lambda", "2", "--grid", "5",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert len(rows_of(target.read_text())) == 5


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_unknown_model_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "nope", "--lambda", "1"])
    assert exc.value.code == 2


def test_missing_lambda_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "base"])
    assert exc.value.code == 2


def test_xi_required_for_synth_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--model", "wrsa", "--lambda", "1", "--sigma-a", "0.3",
             "--sigma-ab", "0.3", "--epsilon", "0.02"])
    assert exc.value.code == 2


def test_missing_data_file_is_runtime_error(capsys):
    code, out, err = invoke(
        capsys, "fit", "--model", "base", "--data", "/nonexistent/file.csv"
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_invalid_prior_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--model", "base", "--lambda", "1", "--p", "1.5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the import time; nothing in the CLI needs it
    src = str(Path(rsa_exh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, rsa_exh.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
