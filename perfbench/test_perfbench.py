"""Tests of the benchmark itself: wrong results must be counted as failures.

    python3 -m pytest perfbench -q
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import common
import experiments_exact
import pair_report
import run
from spans import Tracer, patched
from sweep import Sweep, clipped_sum, digesting


@pytest.fixture(scope="module")
def dg():
    return common.import_divgauge()


def test_tail_statistics_do_not_depend_on_the_sample_count():
    # A faster version fits more operations into a run; its tail must be
    # the same statistic.  Latencies 1..n in a shuffled order:
    for n in (3, 12, 15, 40):
        values = [float((7 * i) % n + 1) for i in range(n)]
        value, _ = common.slowest_of_first(values)
        assert value == max(values[: common.TAIL_OPS])
    assert common.slowest_of_first([2.0]) == (2.0, "slowest of the first 1 of 1 operations")
    # the percentile of 1..n is 1 + (n - 1) p / 100, for 12 or 1500 samples
    for n in (12, 15, 1500):
        values = [float(i) for i in range(n, 0, -1)]
        assert abs(common.percentile(values, 98.5) - (1 + (n - 1) * 0.985)) < 1e-9
    assert common.percentile([5.0], 98.5) == 5.0
    assert common.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_times_are_rescaled_by_the_probes_around_them():
    ref = common.PROBE_REFERENCE_S
    assert common.at_reference_speed(2.0, ref, ref) == 2.0
    # the box ran at half speed: the time at reference speed is half
    assert common.at_reference_speed(2.0, 2 * ref, 2 * ref) == 1.0


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.names = ["op", "a", "b", "a"]
    tr.parents = [-1, 0, 1, 0]
    tr.starts = [0.0, 1.0, 2.0, 6.0]
    tr.ends = [10.0, 5.0, 4.0, 7.0]
    assert tr.self_times() == {"op": 5.0, "a": 3.0, "b": 2.0}
    assert tr.durations("a", "op") == [4.0, 1.0]
    assert tr.self_times("replay") == {}


def test_patched_restores_and_skips_missing_targets():
    owner = {"f": lambda x: x + 1}
    original = owner["f"]
    tr = Tracer()
    with patched(tr, [(owner, "f", "layer.f"), (owner, "gone", "layer.gone")]):
        assert owner["f"](1) == 2
    assert owner["f"] is original
    assert tr.names == ["layer.f"]


def _sweep_with(labels, recorded, slacks, sums=None):
    sw = Sweep()
    sw.labels = sw.recorded_labels = sorted(labels)
    sw.trials = {"5": recorded}
    sw.worst_slack = {"5": slacks}
    sw.value_sums = {"5": sums or {}}
    return sw


def _report(trials, violations=0, worst_slack=0.25):
    return SimpleNamespace(trials=trials, violations=violations, worst_slack=worst_slack)


def test_sweep_check_counts_violations_and_trial_drift():
    sw = _sweep_with(["a", "b"], {"a": [10, 10], "b": [7, 9]}, {"a": [0.25, 0.5], "b": [0.25, 0.1]})
    good = {"a": _report(10), "b": _report(7)}
    assert sw.check(5, good) == []
    assert len(sw.check(5, dict(good, b=_report(7, violations=1)))) == 1
    assert len(sw.check(5, dict(good, a=_report(9)))) == 1
    assert sw.check(5, {"a": good["a"]})  # a case went missing
    # a vacuous bound: no violations, the same trials, another worst slack
    for slack in (0.25 + 1e-6, math.inf, math.nan):
        assert len(sw.check(5, dict(good, b=_report(7, worst_slack=slack)))) == 1
    # two chunks (the pool call): trials add up, worst slacks take the min
    assert sw.check(5, {"a": _report(20, worst_slack=0.25), "b": _report(16, worst_slack=0.1)}, 2) == []


def test_sweep_check_compares_clipped_bound_values():
    sw = _sweep_with(["a"], {"a": [4, 4]}, {"a": [0.0, 0.0]}, {"a": [1.5, 4]})
    good = {"a": _report(4, worst_slack=0.0)}
    registry = {"a": lambda batch: (np.array([[0.2, 0.3], [1.0, 7.0]]), None)}
    fake = SimpleNamespace(_REGISTRY=registry, case_label=lambda bid, params: bid)
    batch = SimpleNamespace(shape=(2, 2))
    sums = {}
    with digesting(fake, sums):
        registry["a"](batch)  # 7.0 is clipped to 1
    assert registry["a"](batch)[0][0, 0] == 0.2 and sums == {"a": [2.5, 4]}
    assert sw.check(5, good, sums={"a": [1.5, 4]}) == []
    # a bound that returns 1 everywhere keeps its worst slack of 0 at the
    # sure event, but not its values
    assert len(sw.check(5, good, sums={"a": [4.0, 4]})) == 1
    assert len(sw.check(5, good, sums={})) == 1
    assert clipped_sum(np.array([np.nan, -1.0]), np.array([True, True]), (2,)) == [1.0, 2]


def test_traced_counts_survive_a_failed_first_operation():
    sw = Sweep()
    sw.bound_ids, sw.pool_wall = [], None
    raised = common.Outcome(work=0, attempted=1, failed=1, failures=["raised"])
    ok = common.Outcome(work=500, attempted=1, failed=0, failures=[], counts={"trials": 7, "violations": 0})
    assert sw.layer_metrics(Tracer(), [], [raised])["verify.trials"] == (0, "count")
    assert sw.layer_metrics(Tracer(), [], [raised, ok])["verify.trials"] == (7, "count")
    ex = experiments_exact.ExperimentsExact()
    assert ex.layer_metrics(Tracer(), [], [raised])["experiments.atoms"] == (0, "count")


def test_sweep_precheck_fails_when_the_negative_control_passes():
    sw = Sweep()
    sw.verify = SimpleNamespace(harness_self_test=lambda: SimpleNamespace(violations=0))
    assert sw.precheck().failed == 1


def test_pair_report_checks_flag_wrong_results():
    entry = pair_report.ENTRIES["bound_kl"]
    assert entry.check(0.5, 0.5) == []
    assert entry.check(0.5 + 1e-6, 0.5)
    row = {"row": "reverse_kl", "claim": "ours", "applicable": True, "events": 256,
           "ours_tighter_or_equal": 255, "max_ours_minus_competitor": 1e-3}
    assert pair_report.ENTRIES["dominance_report_s8"].check([row], [row])
    report = {"trials": 65536, "violations": 0, "worst_slack": 0.01}
    check = pair_report.ENTRIES["com_bound_s16_kl"].check
    assert check(report, report) == []
    assert check(dict(report, violations=3), report)


def test_experiments_flag_a_bound_below_the_exact_tail(dg, monkeypatch):
    wl = experiments_exact.ExperimentsExact()
    wl.setup(dg, common.load_fixture(), 0, None)
    names = wl.small[:3]
    assert wl.run(names).failed == 0
    monkeypatch.setattr(dg, "gen_tail_ml", lambda *a: SimpleNamespace(raw=-1.0))
    monkeypatch.setattr(dg, "cmi_tail_egamma", lambda *a: -1.0)
    out = wl.run(names)
    assert out.failed == 3 and out.attempted == 3


def test_experiments_flag_wrong_exact_tails(dg, monkeypatch):
    """Tails that are too small keep every bound above them, but differ
    from the recorded ones."""
    wl = experiments_exact.ExperimentsExact()
    wl.setup(dg, common.load_fixture(), 0, None)
    names = wl.small[:2]
    exact_tail = dg.experiments.ExactTail.__call__
    monkeypatch.setattr(dg.experiments.ExactTail, "__call__", lambda self, eta: 0.5 * exact_tail(self, eta))
    out = wl.run(names)
    assert out.failed == 2
    assert all("exact_tail" in f for f in out.failures)


def test_a_corrupted_package_fails_the_run(monkeypatch, capsys):
    """End to end: a bound that returns a wrong value makes the run exit
    nonzero with correct=false and the failures counted."""
    real_import = common.import_divgauge

    def corrupted():
        dg = real_import()
        wrong = dg.bound_kl

        def bound_kl(q, d, c=None):
            res = wrong(q, d, c)
            return type(res)(res.name, 0.0, res.free_params)

        monkeypatch.setattr(dg, "bound_kl", bound_kl)
        return dg

    monkeypatch.setattr(run, "import_divgauge", corrupted)
    code = run.main(["--workload", "pair_report", "--seed", "1", "--seconds", "0.1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


def test_missing_sources_stop_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "SRC_DIR", tmp_path)
    with pytest.raises(common.MissingSource):
        common.import_divgauge()
