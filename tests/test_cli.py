import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsa_exh
from rsa_exh.analysis import Predicate
from rsa_exh.cli import build_parser, run
from rsa_exh.data import parse_dataset
from rsa_exh.fitting import FIT_COLUMNS
from rsa_exh.models import ModelId


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


@pytest.mark.parametrize("text", [
    '{"lambda": -1}',  # out of range, as --lambda -1 is
    '{"lambda": 2, "gamma": 1}',  # unknown key
    '{"delta_ab": 1}',  # no lambda
    "[2]",  # not an object
    "lambda = 2",  # not JSON
    '{"lambda": [2]}',  # not a number
    '{"lambda": {}}',
    '{"lambda": 1, "delta_ab": null}',  # only xi may be null
    '{"lambda": true}',  # a JSON boolean is not a number
    '{"lambda": 2, "xi": false}',
    '{"lambda": 1' + "0" * 400 + "}",  # an integer beyond float range is inf
])
def test_bad_params_file_exits_2(capsys, tmp_path, text):
    params = tmp_path / "params.json"
    params.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "base", "--params", str(params)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--params" in captured.err


@pytest.mark.parametrize("text, model, flags, same_as", [
    # the file's values are the flags' values, xi included or left out
    ('{"lambda": 3, "delta_ab": 1, "delta_anb": 1.2, "xi": 0.1}', "wrsa", [],
     ["--lambda", "3", "--cost-ab", "1", "--cost-anb", "1.2", "--xi", "0.1"]),
    ('{"lambda": 2.0, "delta_ab": 0.25}', "base", [], ["--lambda", "2", "--cost-ab", "0.25"]),
    ('{"lambda": 2, "xi": null}', "base", [], ["--lambda", "2"]),
    # a flag completes the file or overrides its value before validation
    ('{"delta_ab": 1}', "base", ["--lambda", "2"], ["--lambda", "2", "--cost-ab", "1"]),
    ('{"lambda": -1}', "base", ["--lambda", "2"], ["--lambda", "2"]),
])
def test_params_file_merges_with_the_flags(capsys, tmp_path, text, model, flags, same_as):
    params = tmp_path / "params.json"
    params.write_text(text)
    sweep = ["sweep", "--model", model, "--grid", "9"]
    code, out, err = invoke(capsys, *sweep, "--params", str(params), *flags)
    assert code == 0 and err == ""
    assert (code, out) == invoke(capsys, *sweep, *same_as)[:2]
    assert out != invoke(capsys, *sweep, "--lambda", "2", "--cost-ab", "0.5", "--xi", "0.1")[1]


def test_parser_offers_every_model_and_predicate(capsys):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {name: {a.dest: a.choices for a in sub._actions}
               for name, sub in subparsers.choices.items()}
    for name in ("sweep", "check", "simulate", "fit", "synth"):
        assert offered[name]["model"] == [m.value for m in ModelId]
    assert offered["check"]["predicate"] == [pr.value for pr in Predicate]
    args = parser.parse_args(["compare", "--data", "data.csv", "--models", "all"])
    assert args.models == list(ModelId)
    args = parser.parse_args(["compare", "--data", "data.csv", "--models", "wrsa, base"])
    assert args.models == [ModelId.WRSA, ModelId.BASE_RSA]
    with pytest.raises(SystemExit):
        parser.parse_args(["compare", "--data", "data.csv", "--models", "base,nope"])
    assert "unknown model 'nope'; choose 'all' or from base, wrsa," in capsys.readouterr().err


def test_missing_params_file_is_a_runtime_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "sweep", "--model", "base",
                            "--params", str(tmp_path / "absent.json"))
    assert code == 1
    assert out == "" and err.startswith("error:")


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


def test_fit_notes_each_parameter_on_a_bound_with_its_value(capsys, synth_file):
    # the data are generated at cost 0 for A_AND_B; one shared cost goes to 0
    code, out, err = invoke(
        capsys, "fit", "--model", "base", "--data", str(synth_file),
        "--restarts", "3", "--seed", "1", "--equal-costs",
    )
    assert code == 0
    assert err == "note: base fit at bound for: delta_ab=0, delta_anb=0\n"
    (row,) = rows_of(out)
    assert tuple(row) == FIT_COLUMNS and row["delta_ab"] == row["delta_anb"] == "0"


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


def test_compare_notes_each_fit_at_a_bound_as_fit_does(capsys, synth_file):
    # one note per ranked model with a parameter on a bound, in rank order,
    # each the line that fit prints for that model
    options = ["--data", str(synth_file), "--restarts", "3", "--seed", "1", "--equal-costs"]
    code, out, err = invoke(capsys, "compare", "--models", "base,wrsa", *options)
    assert code == 0
    notes = []
    for row in rows_of(out):
        fit_code, fit_out, fit_err = invoke(capsys, "fit", "--model", row["model"], *options)
        assert fit_code == 0 and rows_of(fit_out) == [row]
        notes.append(fit_err)
    assert err == "".join(notes)
    assert "note: base fit at bound for: delta_ab=0, delta_anb=0\n" in notes


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


SYNTH = ["synth", "--model", "base", "--lambda", "1", "--sigma-a", "0.3",
         "--sigma-ab", "0.3", "--epsilon", "0.02"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "nope", "--lambda", "1"],
    ["fit", "--model", "nope", "--data", "data.csv"],
    ["compare", "--models", "base,nope", "--data", "data.csv"],
    ["sweep", "--grid", "0", "--model", "base", "--lambda", "1"],
    ["check", "--model", "base", "--lambda", "1", "--grid-step", "0.5"],
    ["check", "--model", "base", "--lambda", "1", "--grid-step", "0.0000001"],
    ["sweep", "--model", "base", "--lambda", "1", "--cost-ab", "nan"],
    ["sweep", "--model", "base", "--lambda", "inf"],
    ["sweep", "--model", "svrsa1", "--lambda", "1", "--xi", "0.5", "--cost-anb", "inf"],
    [*SYNTH, "--levels", "0"],
    [*SYNTH, "--n-utt-a", "-1"],
    [*SYNTH, "--prior-sd", "0.9"],
])
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["fit", "--model", "base"], ["compare"]])
@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_fewer_than_one_restart_exits_2(capsys, synth_file, command, restarts):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--data", str(synth_file), "--restarts", restarts])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_lambda_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "base"])
    assert exc.value.code == 2


def test_xi_required_for_synth_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--model", "wrsa", "--lambda", "1", "--sigma-a", "0.3",
             "--sigma-ab", "0.3", "--epsilon", "0.02"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "wrsa", "--lambda", "1"],
    ["check", "--model", "bwrsa", "--lambda", "1"],
    ["simulate", "--model", "svrsa1", "--lambda", "1", "--p", "0.5"],
    ["synth", "--model", "svrsa2", "--lambda", "1", "--sigma-a", "0.3",
     "--sigma-ab", "0.3", "--epsilon", "0.02"],
])
def test_missing_xi_exits_2_on_every_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[2]} requires --xi" in captured.err


def test_missing_data_file_is_runtime_error(capsys):
    code, out, err = invoke(
        capsys, "fit", "--model", "base", "--data", "/nonexistent/file.csv"
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_unwritable_out_is_runtime_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.csv"
    code, out, err = invoke(
        capsys, "sweep", "--model", "base", "--lambda", "2", "--out", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "x.csv" in err
    assert not target.parent.exists()


def test_invalid_prior_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--model", "base", "--lambda", "1", "--p", "1.5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def _fresh_process(probe):
    """The stdout of ``python -c probe`` in a fresh interpreter that finds
    this package."""
    src = str(Path(rsa_exh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _loaded_by_cli_import(prefix):
    """The modules named ``prefix...`` that a fresh ``import rsa_exh.cli`` loads."""
    return _fresh_process(
        "import sys, rsa_exh.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special's import also loads numpy.f2py, numpy.testing and
    # numpy.ma; only the fits need it
    assert _loaded_by_cli_import("scipy") == "[]"


def test_only_the_fits_load_scipy(tmp_path):
    # sweep, check, simulate and synth predict on numpy alone; fit loads
    # scipy.special on its first likelihood call
    data = tmp_path / "data.csv"
    common = ["--model", "wrsa", "--lambda", "3", "--cost-ab", "0.5", "--cost-anb", "1",
              "--xi", "0.3"]
    commands = [
        ["sweep", *common, "--grid", "9"],
        ["check", *common],
        ["simulate", *common, "--p", "0.7"],
        ["synth", *common, "--sigma-a", "0.3", "--sigma-ab", "0.2", "--epsilon", "0.02",
         "--out", str(data)],
    ]
    fit = ["fit", "--model", "base", "--data", str(data), "--restarts", "1"]
    probe = (
        "import contextlib, io, sys\n"
        "from rsa_exh.cli import run\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {commands!r}]\n"
        "    before = scipy_loaded()\n"
        f"    codes.append(run({fit!r}))\n"
        "print(codes, before, 'scipy.special' in scipy_loaded())\n"
    )
    assert _fresh_process(probe) == "[0, 0, 0, 0, 0] [] True"


def test_cli_import_leaves_multiprocessing_unloaded():
    # compare imports it when it runs: the other subcommands never need it
    assert _loaded_by_cli_import("multiprocessing") == "[]"
