"""Byte-for-byte golden outputs of the command line.

The README promises that identical arguments and seed give identical bytes.
Each case below runs ``cli.main`` in a temporary directory (so the echoed
config holds only relative file names) and compares the exit code, stdout
and stderr with ``tests/golden/<name>.txt``.

To record the files again after an intended output change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from divgauge import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

INPUTS = {
    # a zero P atom: every reverse divergence is infinite
    "pair.json": {"p": {"probs": [0.5, 0.3, 0.2, 0.0]}, "q": {"probs": [0.25] * 4}},
    "finite.json": {
        "p": {"probs": [0.4, 0.1, 0.3, 0.05, 0.1, 0.05]},
        "q": {"probs": [0.2, 0.2, 0.1, 0.2, 0.15, 0.15]},
    },
    "joint.json": {"matrix": [[0.25, 0.25, 0.0], [0.05, 0.15, 0.3]]},
    "divs.json": {"gamma": 1.0, "e_gamma": 0.05, "chi2": 0.3, "h2": 0.1, "beta": 2.0,
                  "h_beta": 0.3, "leakage": 0.2, "alpha": 2.0, "i_alpha": 0.15},
    "gibbs.json": {
        "type": "gibbs", "p_z": [0.5, 0.5],
        "loss_table": [[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]], "n": 4, "temperature": 2.0,
    },
    "supersample.json": {
        "type": "supersample", "p_z": [0.5, 0.5],
        "loss_table": [[0.0, 1.0], [0.8, 0.1]], "n": 2, "temperature": "inf",
        "gammas": [1.0, 2.0],
    },
}


def _bound(name, *extra, q="0.1", div="0.3"):
    return ["bound", "--name", name, "--q", q, "--div", div, *extra]


CASES = {
    "div_chi2": ["div", "--pair", "finite.json", "--kind", "chi2"],
    "div_reverse_kl_inf": ["div", "--pair", "pair.json", "--kind", "reverse_kl"],
    "div_power": ["div", "--pair", "finite.json", "--kind", "power", "--beta", "2.5"],
    "div_hockey_stick": ["div", "--pair", "finite.json", "--kind", "hockey_stick", "--gamma", "1.5"],
    "div_renyi": ["div", "--pair", "finite.json", "--kind", "renyi", "--alpha", "2"],
    "div_joint_sibson": ["div", "--joint", "joint.json", "--kind", "sibson", "--alpha", "2"],
    "div_joint_leakage": ["div", "--joint", "joint.json", "--kind", "maximal_leakage"],
    "div_joint_mi": ["div", "--joint", "joint.json", "--kind", "mutual_information"],
    "div_joint_kl": ["div", "--joint", "joint.json", "--kind", "kl"],
    "div_joint_renyi": ["div", "--joint", "joint.json", "--kind", "renyi", "--alpha", "3"],
    "div_joint_sibson_no_alpha": ["div", "--joint", "joint.json", "--kind", "sibson"],
    "div_pair_joint_kind": ["div", "--pair", "finite.json", "--kind", "maximal_leakage"],
    "div_both_inputs": ["div", "--pair", "finite.json", "--joint", "joint.json", "--kind", "kl"],
    "div_power_no_beta": ["div", "--pair", "finite.json", "--kind", "power"],
    "bound_egamma": _bound("egamma", "--gamma", "2", div="0.15"),
    "bound_chi2": _bound("chi2"),
    "bound_kl": _bound("kl"),
    "bound_kl_c": _bound("kl", "--c", "0.7"),
    "bound_hellinger": _bound("hellinger", q="0.2", div="0.1"),
    "bound_hellinger_vacuous": _bound("hellinger", q="0.8", div="0.5"),
    "bound_power_implicit": _bound("power_implicit", "--beta", "2", q="0.05", div="0.4"),
    "bound_power_qmax": _bound("power_qmax", "--beta", "2", "--q-max", "0.3", q="0.05", div="0.4"),
    "bound_power_qmax_invalid": _bound("power_qmax", "--beta", "4", "--q-max", "0.9", q="0.5", div="2"),
    "bound_power_small_q": _bound("power_small_q", "--beta", "2", q="0.05", div="0.4"),
    "bound_reverse_chi2": _bound("reverse_chi2", q="0.2", div="0.5"),
    "bound_reverse_kl_exact": _bound("reverse_kl_exact", q="0.2", div="0.5"),
    "bound_reverse_kl_explicit": _bound("reverse_kl_explicit", q="0.2", div="0.5"),
    "bound_vincze_lecam": _bound("vincze_lecam", q="0.2", div="0.3"),
    "bound_degenerate_q0": _bound("kl", q="0"),
    "bound_csv": _bound("chi2", "--format", "csv"),
    "bound_unknown": _bound("nope"),
    "bound_egamma_no_gamma": _bound("egamma"),
    "bound_power_no_beta": _bound("power_small_q"),
    "bound_power_qmax_no_cap": _bound("power_qmax", "--beta", "2"),
    "bound_bad_q": _bound("chi2", q="1.5"),
    "compare_json": ["compare", "--pair", "pair.json"],
    "compare_csv": ["compare", "--pair", "pair.json", "--format", "csv"],
    "compare_event_json": ["compare", "--pair", "pair.json", "--event", "0b0101"],
    "compare_event_csv": ["compare", "--pair", "pair.json", "--event", "0b0101", "--format", "csv"],
    "compare_finite_json": ["compare", "--pair", "finite.json"],
    "compare_finite_csv": ["compare", "--pair", "finite.json", "--format", "csv"],
    "compare_finite_event_json": ["compare", "--pair", "finite.json", "--event", "0b000101"],
    "compare_finite_event_csv": ["compare", "--pair", "finite.json", "--event", "0x2b", "--format", "csv"],
    "verify_all": ["verify", "--suite", "all", "--pairs", "50", "--support", "6",
                   "--jobs", "1", "--seed", "3"],
    "experiment_gibbs": ["experiment", "--config", "gibbs.json", "--eta-grid", "0.1:0.9:0.2"],
    "experiment_supersample": ["experiment", "--config", "supersample.json",
                               "--eta-grid", "0.1:0.9:0.2"],
    "genbound_div_file": ["genbound", "--sigma", "1.0", "--n", "50", "--eta-grid", "0.1:0.5:0.1",
                          "--div-file", "divs.json"],
    "mi_gap": ["mi-gap", "--sigma", "1.5", "--n", "4", "--mi-grid", "0:1:0.25"],
    "genbound_experiment": ["genbound", "--sigma", "0.5", "--n", "4",
                            "--eta-grid", "0.1:0.9:0.2", "--experiment", "gibbs.json"],
}


def render(argv: list[str], workdir: pathlib.Path) -> str:
    """Run the CLI in `workdir` and return its exit code and output streams."""
    for name, obj in INPUTS.items():
        (workdir / name).write_text(json.dumps(obj), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.txt").read_bytes()
    got = render(CASES[name], tmp_path).encode("utf-8")
    assert got == want


def test_main_reuses_its_parser_without_carrying_state(tmp_path, monkeypatch):
    """One process: a parse error, a command error, then one success of each
    command, all through the one parser main builds on its first call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--name", "kl", "--q", "0.1"])  # --div missing
    assert exc.value.code == 2 and "required: --div" in err.getvalue()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name in ("bound_unknown", "bound_csv", "bound_kl", "div_chi2", "compare_json",
                 "verify_all", "genbound_div_file", "experiment_gibbs", "mi_gap"):
        want = (GOLDEN / f"{name}.txt").read_bytes()
        assert render(CASES[name], tmp_path).encode("utf-8") == want, name
    assert not built  # no call built a parser
    assert cli.build_parser() is not cli._parser()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case, args in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{case}.txt").write_bytes(render(args, pathlib.Path(tmp)).encode("utf-8"))
        print(case, file=sys.stderr)
