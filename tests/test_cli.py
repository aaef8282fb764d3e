import argparse
import ast
import inspect
import json
import math

import numpy as np
import pytest

from divgauge import cli, mi_gap_constant
from divgauge import divergences as dv
from divgauge.verify import VerificationReport


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"p": {"probs": [0.5, 0.3, 0.2, 0.0]}, "q": {"probs": [0.25] * 4}})
    )
    return str(path)


@pytest.fixture()
def gibbs_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "type": "gibbs",
                "p_z": [0.5, 0.5],
                "loss_table": [[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]],
                "n": 5,
                "temperature": 2.0,
            }
        )
    )
    return str(path)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_div_on_equal_pair_is_zero(tmp_path):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"p": {"probs": [0.3, 0.7]}, "q": {"probs": [0.3, 0.7]}}))
    for kind in ("kl", "chi2", "tv", "squared_hellinger", "vincze_lecam"):
        code, payload = run_json(
            ["div", "--pair", str(path), "--kind", kind], tmp_path
        )
        assert code == 0
        assert payload["value"] == pytest.approx(0.0, abs=1e-12)
    code, payload = run_json(
        ["div", "--pair", str(path), "--kind", "renyi", "--alpha", "2.0"], tmp_path
    )
    assert code == 0 and payload["value"] == pytest.approx(0.0, abs=1e-12)


def test_div_chi2_value(pair_file, tmp_path):
    code, payload = run_json(["div", "--pair", pair_file, "--kind", "chi2"], tmp_path)
    assert code == 0
    assert payload["value"] == pytest.approx(0.52, abs=1e-12)
    assert payload["config"]["kind"] == "chi2"


def test_bound_command_round_trip(tmp_path):
    code, payload = run_json(
        ["bound", "--name", "chi2", "--q", "0.1", "--div", "0.3"], tmp_path
    )
    assert code == 0
    assert payload["raw"] == pytest.approx(0.1 + math.sqrt(0.1 * 0.9 * 0.3), abs=1e-12)
    assert payload["preconditions_met"] is True


def test_bound_command_rejects_unknown_name_and_bad_q(tmp_path):
    assert cli.main(["bound", "--name", "nope", "--q", "0.1", "--div", "0.3"]) == 2
    assert cli.main(["bound", "--name", "chi2", "--q", "1.5", "--div", "0.3"]) == 2


# (a command line with an option its command does not read, the error line)
UNREAD_OPTIONS = [
    (["bound", "--name", "kl", "--q", "0.1", "--div", "0.3", "--gamma", "2"],
     "bound kl takes no --gamma"),
    (["bound", "--name", "chi2", "--q", "0.1", "--div", "0.3", "--q-max", "0.5"],
     "bound chi2 takes no --q-max"),
    (["bound", "--name", "power_implicit", "--q", "0.1", "--div", "0.3", "--beta", "2",
      "--q-max", "0.3"], "power mode 'implicit' takes no q_max"),
    (["div", "--pair", "{pair}", "--kind", "chi2", "--beta", "2"],
     "div --kind chi2 takes no --beta"),
    (["div", "--pair", "{pair}", "--kind", "renyi", "--alpha", "2", "--gamma", "1"],
     "div --kind renyi takes no --gamma"),
    (["div", "--joint", "{pair}", "--kind", "sibson", "--alpha", "2", "--beta", "2"],
     "div --kind sibson takes no --beta"),
    # refused before the file is read
    *((["genbound", "--sigma", "1", "--n", "5", "--eta-grid", "0.1:0.3:0.1", "--div-file",
        "{pair}", f"--{name}", "2"], f"genbound --div-file takes no --{name}")
      for name in ("gamma", "beta", "alpha")),
]


@pytest.mark.parametrize("argv, message", UNREAD_OPTIONS, ids=[m for _, m in UNREAD_OPTIONS])
def test_an_option_the_command_does_not_read_exits_2(argv, message, pair_file, tmp_path,
                                                     capsys):
    out = tmp_path / "out.json"
    assert cli.main([a.format(pair=pair_file) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"divgauge: error: {message}\n")
    assert not out.exists()


def test_compare_outputs_rows(pair_file, tmp_path):
    code, payload = run_json(["compare", "--pair", pair_file], tmp_path)
    assert code == 0
    rows = {r["row"]: r for r in payload["rows"]}
    assert rows["kl"]["claim"] == "same"
    assert rows["power"]["claim"] == "incomparable"
    # this pair has a zero P atom: reverse rows are not applicable
    assert rows["reverse_kl"]["applicable"] is False


def test_compare_event_mode(pair_file, tmp_path):
    code, payload = run_json(
        ["compare", "--pair", pair_file, "--event", "0b0101"], tmp_path
    )
    assert code == 0
    assert payload["p"] == pytest.approx(0.7)
    assert payload["q"] == pytest.approx(0.5)
    rows = {r["row"]: r for r in payload["rows"]}
    # per-event replica carries ours vs competitor vs truth
    chi2 = rows["chi2"]
    assert chi2["ours"] == pytest.approx(chi2["competitor"], abs=1e-12)
    assert chi2["ours"] >= payload["p"] - 1e-9
    assert chi2["tighter"] is True
    assert rows["reverse_kl"]["applicable"] is False


def test_div_joint_measures(tmp_path):
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"matrix": [[0.25, 0.25], [0.0, 0.5]]}))
    code, payload = run_json(
        ["div", "--joint", str(joint), "--kind", "sibson", "--alpha", "2"], tmp_path
    )
    assert code == 0 and payload["value"] > 0
    code, payload = run_json(
        ["div", "--joint", str(joint), "--kind", "maximal_leakage"], tmp_path
    )
    assert code == 0 and payload["value"] > 0
    code, payload = run_json(
        ["div", "--joint", str(joint), "--kind", "kl"], tmp_path
    )
    assert code == 0 and payload["value"] > 0  # joint vs product of marginals
    assert cli.main(["div", "--joint", str(joint), "--kind", "sibson"]) == 2
    assert cli.main(["div", "--kind", "kl"]) == 2


def test_verify_all_suite_small(tmp_path):
    code, payload = run_json(
        ["verify", "--suite", "all", "--seed", "42", "--pairs", "150",
         "--support", "6", "--jobs", "1"],
        tmp_path,
    )
    assert code == 0
    assert payload["ok"] is True
    kinds = {r["bound"].split("[")[0].split(":")[0] for r in payload["reports"]}
    assert "identity" in kinds and "negative_control" in kinds


def test_verify_selftest_and_identities(tmp_path):
    code, payload = run_json(
        ["verify", "--suite", "selftest", "--seed", "42"], tmp_path
    )
    assert code == 0
    entry = payload["reports"][0]
    assert entry["violations"] > 0 and entry["expected_violations"]

    code, payload = run_json(
        ["verify", "--suite", "identities", "--seed", "42"], tmp_path
    )
    assert code == 0
    assert payload["ok"] is True


def test_verify_master_small(tmp_path):
    code, payload = run_json(
        ["verify", "--suite", "master", "--seed", "42", "--pairs", "60",
         "--support", "6", "--jobs", "1"],
        tmp_path,
    )
    assert code == 0
    assert payload["ok"] is True
    assert all(r["violations"] == 0 for r in payload["reports"])


def test_verify_exit_code_three_on_violations(tmp_path, monkeypatch):
    broken = VerificationReport("chi2", trials=10, violations=3, worst_slack=-0.5)

    def fake_master(**kwargs):
        return {"chi2": broken}

    monkeypatch.setattr(cli.vf, "master_soundness", fake_master)
    out = tmp_path / "rep.json"
    code = cli.main(
        ["verify", "--suite", "master", "--seed", "1", "--out", str(out)]
    )
    assert code == 3
    assert json.loads(out.read_text())["ok"] is False


@pytest.mark.parametrize("args", [
    ["--support", "0"], ["--support", "-1"], ["--pairs", "0"], ["--pairs", "-5"],
])
def test_verify_master_without_pairs_or_atoms_exits_2(args, capsys):
    # a sweep of no pairs would report ok without checking anything
    assert cli.main(["verify", "--suite", "master", "--jobs", "1", *args]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_master_at_support_1(tmp_path):
    code, payload = run_json(
        ["verify", "--suite", "master", "--seed", "0", "--pairs", "50",
         "--support", "1", "--jobs", "1"],
        tmp_path,
    )
    assert code == 0 and payload["ok"] is True
    assert max(r["trials"] for r in payload["reports"]) == 100  # 2 events per pair


def test_genbound_csv_and_determinism(gibbs_file, tmp_path):
    out = tmp_path / "curves.csv"
    argv = [
        "genbound", "--sigma", "0.5", "--n", "5", "--eta-grid", "0.1:1.0:0.1",
        "--experiment", gibbs_file, "--format", "csv", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    assert header[:2] == ["eta", "theta"]
    assert "min" in header and "exact_tail" in header
    assert len(lines) == 2 + 10  # config + header + grid rows


def test_genbound_exact_tail_never_exceeds_min_bound(gibbs_file, tmp_path):
    code, payload = run_json(
        [
            "genbound", "--sigma", "0.5", "--n", "5", "--eta-grid", "0.05:1.0:0.05",
            "--experiment", gibbs_file, "--format", "json",
        ],
        tmp_path,
    )
    assert code == 0
    for row in payload["rows"]:
        assert row["exact_tail"] <= row["min"] + 1e-9


def test_genbound_alpha_inf_row_is_the_leakage_bound(gibbs_file, tmp_path):
    # Sibson's information of order inf is the maximal leakage, and so is its bound
    code, payload = run_json(
        ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid", "0.1:1.0:0.3",
         "--experiment", gibbs_file, "--alpha", "inf", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    for row in payload["rows"]:
        assert row["alpha_mi"] == row["maximal_leakage"], row


def test_genbound_div_file_input(tmp_path):
    div_file = tmp_path / "d.json"
    div_file.write_text(
        json.dumps(
            {"gamma": 1.0, "e_gamma": 0.05, "chi2": 0.3, "h2": 0.1,
             "beta": 2.0, "h_beta": 0.3}
        )
    )
    code, payload = run_json(
        ["genbound", "--sigma", "1.0", "--n", "50", "--eta-grid", "0.1:0.5:0.1",
         "--div-file", str(div_file), "--format", "json"],
        tmp_path,
    )
    assert code == 0
    assert len(payload["rows"]) == 5
    incomplete = tmp_path / "bad.json"
    incomplete.write_text(json.dumps({"gamma": 1.0}))
    assert cli.main(
        ["genbound", "--sigma", "1.0", "--n", "50", "--eta-grid", "0.1:0.5:0.1",
         "--div-file", str(incomplete)]
    ) == 2


def test_genbound_infinite_leakage_where_theta_underflows_is_vacuous(tmp_path):
    div_file = tmp_path / "d.json"
    div_file.write_text(json.dumps({**_DIVS, "leakage": math.inf, "alpha": 2.0,
                                    "i_alpha": math.inf}))
    code, payload = run_json(
        ["genbound", "--sigma", "1.0", "--n", "10", "--eta-grid", "40:41:1",
         "--div-file", str(div_file), "--format", "json"],
        tmp_path,
    )
    assert code == 0
    for row in payload["rows"]:
        assert row["theta"] == 0.0
        assert row["maximal_leakage"] == row["alpha_mi"] == math.inf
        assert not any(math.isnan(v) for v in row.values()), row


def test_genbound_rejects_supersample_experiment(tmp_path, capsys):
    cfg = tmp_path / "ss.json"
    cfg.write_text(json.dumps({"type": "supersample", "p_z": [0.5, 0.5],
                               "loss_table": [[0.0, 1.0], [0.8, 0.1]], "n": 2,
                               "temperature": "inf", "gammas": [1.0, 2.0]}))
    out = tmp_path / "tails.csv"
    assert cli.main(
        ["genbound", "--sigma", "0.5", "--n", "2", "--eta-grid", "0.1:0.3:0.1",
         "--experiment", str(cfg), "--out", str(out)]
    ) == 2
    assert "'supersample'" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_command_supersample(tmp_path):
    cfg = tmp_path / "ss.json"
    cfg.write_text(
        json.dumps(
            {
                "type": "supersample",
                "p_z": [0.5, 0.5],
                "loss_table": [[0.0, 1.0], [0.8, 0.1]],
                "n": 3,
                "temperature": 3.0,
                "gammas": [1.0, 2.0],
            }
        )
    )
    code, payload = run_json(
        ["experiment", "--config", str(cfg), "--eta-grid", "0.2:0.8:0.3"], tmp_path
    )
    assert code == 0
    assert set(payload["conditional_hockey_stick"]) == {"1.0", "2.0"}
    assert len(payload["tails"]) == 3


def test_experiment_commands_build_no_string_level_field(gibbs_file, tmp_path, monkeypatch):
    # the CLI reads the panels and tails, which come from the type rows
    runs = []

    def recording(run_experiment):
        def run(exp):
            runs.append(run_experiment(exp))
            return runs[-1]
        return run

    for name in ("run_gibbs_experiment", "run_supersample_experiment"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    cfg = tmp_path / "ss.json"
    cfg.write_text(json.dumps({"type": "supersample", "p_z": [0.5, 0.5],
                               "loss_table": [[0.0, 1.0], [0.8, 0.1]], "n": 3, "temperature": 3.0}))
    for argv in (["experiment", "--config", gibbs_file, "--eta-grid", "0.2:0.8:0.3"],
                 ["experiment", "--config", str(cfg), "--eta-grid", "0.2:0.8:0.3"],
                 ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid", "0.1:1.0:0.3",
                  "--experiment", gibbs_file, "--format", "json"]):
        assert run_json(argv, tmp_path)[0] == 0
    assert len(runs) == 3
    gibbs, supersample, genbound = (set(vars(run)) for run in runs)
    assert "joint" not in gibbs | genbound
    assert "pair" not in supersample


@pytest.mark.parametrize("kind", ["gibbs", "supersample"])
@pytest.mark.parametrize("missing", ["loss_table", "temperature"])
def test_experiment_config_missing_key_exits_2(kind, missing, tmp_path, capsys):
    config = {"type": kind, "p_z": [0.5, 0.5], "loss_table": [[0.0, 1.0], [0.8, 0.1]],
              "n": 2, "temperature": 1.0}
    del config[missing]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    assert f"missing key {missing!r}" in capsys.readouterr().err


def test_experiment_config_bad_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"p_z": [0.5, 0.5], "loss_table": [[0.0, 1.0]], "n": "two",
                               "temperature": 1.0}))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"type": "other"}))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    assert "unknown experiment type 'other'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gibbs", "supersample"])
@pytest.mark.parametrize("n", [4.9, True, 10**400], ids=["4.9", "true", "1e400"])
def test_experiment_config_count_not_an_integer_exits_2(kind, n, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"type": kind, "p_z": [0.5, 0.5], "loss_table": [[0.0, 1.0]],
                               "n": n, "temperature": 1.0}))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("divgauge: error: n = ") and err.count("\n") == 1, err
    assert err.endswith(" must be an integer in [1, inf)\n")
    assert len(err) < 120, err  # 10**400 is printed as 1.000000e+400


def test_mi_gap_reproduces_the_constant(tmp_path):
    out = tmp_path / "gap.csv"
    assert cli.main(
        ["mi-gap", "--sigma", "1", "--n", "1", "--mi-grid", "0:10:0.01",
         "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "mi,ours,competitor,gap"
    gaps = [float(line.split(",")[3]) for line in lines[2:]]
    assert min(gaps) == pytest.approx(mi_gap_constant(), abs=1e-3)


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": nope}')
    assert cli.main(["div", "--pair", str(bad), "--kind", "kl"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DIVGAUGE_SEED", "7")
    code, payload = run_json(["verify", "--suite", "selftest"], tmp_path)
    assert code == 0
    assert payload["seed"] == 7


@pytest.mark.parametrize("env, argv, message", [
    ("abc", [], "$DIVGAUGE_SEED = 'abc' is not an integer"),
    ("-3", [], "seed = -3 must be an integer >= 0"),
    (None, ["--seed", "-1"], "seed = -1 must be an integer >= 0"),
])
def test_verify_bad_seed_exits_2(env, argv, message, tmp_path, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("DIVGAUGE_SEED", raising=False)
    else:
        monkeypatch.setenv("DIVGAUGE_SEED", env)
    out = tmp_path / "out.json"
    assert cli.main(["verify", "--suite", "selftest", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"divgauge: error: {message}\n")
    assert not out.exists()


def test_grid_parsing():
    grid = cli.parse_grid("0.05:1.0:0.05")
    assert len(grid) == 20
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(1.0)
    with pytest.raises(Exception):
        cli.parse_grid("1:0:0.1")


NON_FINITE_GRIDS = ["nan:1:0.1", "0:1:nan", "0:inf:0.5", "0:1:inf", "0:1e308:1e-300", "0:one:0.1"]


@pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
def test_genbound_non_finite_eta_grid_exits_2(grid, gibbs_file, capsys):
    argv = ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid", grid, "--experiment", gibbs_file]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"divgauge: error: grid {grid!r}")


@pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
def test_experiment_non_finite_eta_grid_exits_2(grid, gibbs_file, capsys):
    assert cli.main(["experiment", "--config", gibbs_file, "--eta-grid", grid]) == 2
    assert capsys.readouterr().err.startswith(f"divgauge: error: grid {grid!r}")


@pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
def test_mi_gap_non_finite_mi_grid_exits_2(grid, capsys):
    assert cli.main(["mi-gap", "--sigma", "1", "--n", "4", "--mi-grid", grid]) == 2
    assert capsys.readouterr().err.startswith(f"divgauge: error: grid {grid!r}")


# point counts np.arange refuses at once (1e20, 2e18) or returns as an empty
# array (2^63 + 1); none allocates anything
OVERSIZED_GRIDS = ["0:1e20:1", "0:2e18:1", "0:9223372036854775807:1"]


@pytest.mark.parametrize("grid", OVERSIZED_GRIDS)
def test_mi_gap_grid_numpy_cannot_hold_exits_2(grid, capsys):
    assert cli.main(["mi-gap", "--sigma", "1", "--n", "4", "--mi-grid", grid]) == 2
    assert capsys.readouterr().err.startswith(f"divgauge: error: grid {grid!r} has ")


@pytest.mark.parametrize(
    "gammas", [["x"], "12", [1.0, None], [True], [1.0, math.nan], [math.inf], {"1": 2.0}, 2.0]
)
def test_experiment_rejects_malformed_gammas(gammas, tmp_path, capsys):
    cfg = tmp_path / "ss.json"
    cfg.write_text(json.dumps({"type": "supersample", "p_z": [0.5, 0.5],
                               "loss_table": [[0.0, 1.0], [0.8, 0.1]], "n": 2,
                               "temperature": 1.0, "gammas": gammas}))
    out = tmp_path / "out.json"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert "gammas must be a list of finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_accepts_integer_gammas(tmp_path):
    cfg = tmp_path / "ss.json"
    cfg.write_text(json.dumps({"type": "supersample", "p_z": [0.5, 0.5],
                               "loss_table": [[0.0, 1.0], [0.8, 0.1]], "n": 2,
                               "temperature": 1.0, "gammas": [1, 2.5]}))
    code, payload = run_json(["experiment", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert set(payload["conditional_hockey_stick"]) == {"1", "2.5"}


# a command line that reads each float option of the parser, "{pair}" and
# "{gibbs}" standing for the input files
_FLOAT_OPTION_RUNS = {
    ("div", "--gamma"): ["div", "--pair", "{pair}", "--kind", "hockey_stick"],
    ("div", "--beta"): ["div", "--pair", "{pair}", "--kind", "power"],
    ("div", "--alpha"): ["div", "--pair", "{pair}", "--kind", "renyi"],
    ("bound", "--q"): ["bound", "--name", "chi2", "--div", "0.1"],
    ("bound", "--div"): ["bound", "--name", "chi2", "--q", "0.3"],
    ("bound", "--gamma"): ["bound", "--name", "egamma", "--q", "0.3", "--div", "0.1"],
    ("bound", "--beta"): ["bound", "--name", "power_implicit", "--q", "0.3", "--div", "0.1"],
    ("bound", "--c"): ["bound", "--name", "kl", "--q", "0.3", "--div", "0.1"],
    ("bound", "--q-max"): ["bound", "--name", "power_qmax", "--q", "0.3", "--div", "0.1",
                           "--beta", "2"],
    ("genbound", "--sigma"): ["genbound", "--n", "5", "--eta-grid", "0.1:0.3:0.1",
                              "--experiment", "{gibbs}"],
    ("genbound", "--gamma"): ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid",
                              "0.1:0.3:0.1", "--experiment", "{gibbs}"],
    ("genbound", "--beta"): ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid",
                             "0.1:0.3:0.1", "--experiment", "{gibbs}"],
    ("genbound", "--alpha"): ["genbound", "--sigma", "0.5", "--n", "5", "--eta-grid",
                              "0.1:0.3:0.1", "--experiment", "{gibbs}"],
    ("mi-gap", "--sigma"): ["mi-gap", "--mi-grid", "0:1:0.5"],
}


def test_every_float_option_has_a_nan_run():
    floats = {
        (command, action.option_strings[0])
        for command, sub in _subparsers().items()
        for action in sub._actions
        if action.type is float
    }
    assert floats == set(_FLOAT_OPTION_RUNS)


@pytest.mark.parametrize("command, option", sorted(_FLOAT_OPTION_RUNS))
def test_nan_float_option_exits_2(command, option, pair_file, gibbs_file, capsys):
    argv = [a.format(pair=pair_file, gibbs=gibbs_file) for a in _FLOAT_OPTION_RUNS[command, option]]
    assert cli.main([*argv, option, "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("divgauge: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["gibbs", "supersample"])
def test_experiment_config_nan_temperature_exits_2(kind, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"type": kind, "p_z": [0.5, 0.5], "loss_table": [[0.0, 1.0]],
                               "n": 2, "temperature": math.nan}))
    assert cli.main(["experiment", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "divgauge: error: temperature = nan must lie in [0, inf]\n"


_HALVES = {"probs": [0.5, 0.5]}
_DIVS = {"gamma": 1.0, "e_gamma": 0.05, "chi2": 0.3, "h2": 0.1, "beta": 2.0, "h_beta": 0.3}
_GENBOUND = ["genbound", "--n", "10", "--eta-grid", "0.1:0.3:0.1", "--div-file", "{file}"]

# (id, the input file's content, a command line reading it as "{file}", exit
# code): each malformed file or literal exits 2; the two extremes give rows.
EDGE_INPUTS = [
    ("pair_side_missing_probs", {"p": {"prob": [0.5, 0.5]}, "q": _HALVES},
     ["div", "--pair", "{file}", "--kind", "kl"], 2),
    ("pair_probs_not_numbers", {"p": {"probs": ["x", 0.5]}, "q": _HALVES},
     ["div", "--pair", "{file}", "--kind", "kl"], 2),
    ("pair_probs_ragged", {"p": {"probs": [[0.5], [0.5, 0.0]]}, "q": _HALVES},
     ["div", "--pair", "{file}", "--kind", "kl"], 2),
    ("pair_side_not_an_object", {"p": [0.5, 0.5], "q": _HALVES},
     ["div", "--pair", "{file}", "--kind", "kl"], 2),
    ("pair_labels_not_a_list", {"p": {**_HALVES, "labels": "ab"}, "q": _HALVES},
     ["compare", "--pair", "{file}"], 2),
    ("joint_matrix_not_numbers", {"matrix": "abc"},
     ["div", "--joint", "{file}", "--kind", "mutual_information"], 2),
    ("joint_matrix_ragged", {"matrix": [[0.5], [0.5, 0.0]]},
     ["div", "--joint", "{file}", "--kind", "kl"], 2),
    ("joint_not_an_object", [[0.5, 0.5]],
     ["div", "--joint", "{file}", "--kind", "maximal_leakage"], 2),
    ("event_not_an_integer_literal", {"p": _HALVES, "q": _HALVES},
     ["compare", "--pair", "{file}", "--event", "abc"], 2),
    ("genbound_leakage_1000", {**_DIVS, "leakage": 1000}, [*_GENBOUND, "--sigma", "1"], 0),
    ("genbound_sigma_1e-200", _DIVS, [*_GENBOUND, "--sigma", "1e-200"], 0),
]


@pytest.mark.parametrize("content, argv, code", [row[1:] for row in EDGE_INPUTS],
                         ids=[row[0] for row in EDGE_INPUTS])
def test_malformed_input_exits_2_and_extreme_values_give_rows(content, argv, code, tmp_path,
                                                              capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out.txt"
    assert cli.main([a.format(file=path) for a in argv] + ["--out", str(out)]) == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    if code == 2:
        assert err.startswith("divgauge: error: ") and err.count("\n") == 1, err
        assert not out.exists()
    else:
        assert err == ""
        assert len(out.read_text().splitlines()) == 2 + 3  # config, header, one row per eta


def test_bound_options_come_from_the_entry_point_signatures():
    options = {spec.id: cli._bound_options(spec.scalar) for spec in cli._BOUND_DISPATCH.values()}
    assert options == {
        "egamma": ("gamma",),
        "kl": ("c",),
        **dict.fromkeys(("power_implicit", "power_qmax", "power_small_q"), ("beta", "q_max")),
        **dict.fromkeys(("chi2", "hellinger", "reverse_chi2", "reverse_kl_exact",
                         "reverse_kl_explicit", "vincze_lecam"), ()),
    }
    # the `bound` command's value options are exactly these, in table order
    values = [action.dest for action in _subparsers()["bound"]._actions
              if action.dest not in ("help", "name", "q", "div", "out", "format")]
    assert values == ["gamma", "c", "beta", "q_max"]
    assert set(values) == {name for names in options.values() for name in names}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _cli_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(inspect.getsource(cli))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _calls(node: ast.AST) -> list[str]:
    return [n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]


def test_only_main_writes_the_output_and_echoes_the_config():
    callers = {name: [f for f in _calls(node) if f in ("_emit", "_config_echo")]
               for name, node in _cli_functions().items()}
    assert {name: found for name, found in callers.items() if found} == {
        "main": ["_emit", "_config_echo"]}


def test_each_command_has_exactly_the_options_it_reads():
    """A command's options are the `args.<name>` its function and the cli
    functions it calls read, and main's (`--out`, `--format`), plus the
    ones read by name: a bound entry point's signature, a kind's order."""
    functions = _cli_functions()

    def reads(name: str, seen: set) -> set[str]:
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        node = functions[name]
        found = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "args"}
        for callee in _calls(node):
            found |= reads(callee, seen)
        return found

    by_name = {
        "bound": {name for spec in cli._BOUND_DISPATCH.values()
                  for name in cli._bound_options(spec.scalar)},
        "div": {option for option, _ in dv.ORDER_PARAMS.values()},
    }
    for command, sub in _subparsers().items():
        options = {action.dest for action in sub._actions} - {"help"}
        func = sub.get_default("func").__name__
        read = (reads(func, set()) | reads("main", set())) - {"func"}
        assert options == read | by_name.get(command, set()), command
        assert ("seed" in options) == (command == "verify")
