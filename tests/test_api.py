"""The package's public names: each resolves once, removed names stay
removed, and every ``dg.<name>`` chain the benchmark harness uses resolves."""

import re
from pathlib import Path

import pytest

import divgauge as dg
from divgauge import bounds, cli, dist, divergences, experiments, genbounds, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve_once():
    assert len(dg.__all__) == len(set(dg.__all__))
    for name in dg.__all__:
        assert hasattr(dg, name), name


@pytest.mark.parametrize(
    "owner, name",
    [
        (dg, "make_pair"),
        (dist, "make_pair"),
        (dg, "joint_from_matrix"),
        (dist, "joint_from_matrix"),
        (dg, "DivergenceValue"),
        (divergences, "DivergenceValue"),
        (dg, "enumerate_events"),
        (dist, "enumerate_events"),
        (dist, "ENUM_CAP"),
        (dist.JointFinite, "conditional_s_given_w"),
        (genbounds.GenTailResult, "min_branch"),
        (bounds, "orlicz_indicator_core"),
        *((bounds, f"comp_{row}_core") for row in ("kl", "reverse_chi2", "reverse_kl", "vincze",
                                                   "power")),
        (bounds, "_C_FAMILIES"),
        (experiments.GibbsRun, "gen_table"),
        (experiments.SuperSampleRun, "gen_hat"),
        (dist.EventMask, "count"),
        (bounds, "_check_q"),
        (bounds, "_check_beta"),
        (bounds.Bound, "scalar_args"),
        (bounds, "_POWER_ARGS"),
        (cli, "_dist_from_obj"),
        (cli, "_jsonable"),
        *((verify, name) for name in ("sibson_grid_min", "SIBSON_ZOOMS", "SIBSON_SHRINK")),
        (dg, "sibson_grid_min"),
        (verify.PairBatch.from_pairs([dg.random_pair(0, 0, 2)], dist.event_mask_matrix(2)),
         "masks"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)


def test_perfbench_chains_resolve():
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        chains.update(re.findall(r"\bdg((?:\.[A-Za-z_]\w*)+)", path.read_text()))
    assert chains
    for chain in sorted(chains):
        obj = dg
        for attr in chain.lstrip(".").split("."):
            assert hasattr(obj, attr), f"dg{chain}"
            obj = getattr(obj, attr)
