import json
import math

import numpy as np
import pytest

from divgauge import cli, mi_gap_constant
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


def test_grid_parsing():
    grid = cli.parse_grid("0.05:1.0:0.05")
    assert len(grid) == 20
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(1.0)
    with pytest.raises(Exception):
        cli.parse_grid("1:0:0.1")
