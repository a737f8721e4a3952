"""Smoke test of the benchmark harness in perfbench/."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_smoke_run():
    out = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


def test_tracer_finds_every_target(monkeypatch):
    # install raises AttributeError or KeyError when a wrapped name is gone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import qplab.cli  # noqa: F401  (loads every qplab module the tracer wraps)
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert t._saved
    finally:
        t.uninstall()


def test_bench_pairs_claim_needs_a_gain_beyond_the_bound(monkeypatch):
    """10 of 10 wins and a gap above the parent's spread are not enough when the gain is within the bound."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "scripts"))
    import bench_pairs

    spec = {"end_to_end": [{"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.24}]}
    parent = [1.0 + 0.001 * i for i in range(10)]

    def summary(ratio):
        runs = {"parent": [{"metrics": {"op_s.p50": v}} for v in parent],
                "change": [{"metrics": {"op_s.p50": v * ratio}} for v in parent]}
        return bench_pairs.summarize(runs, spec)["op_s.p50"]

    met = summary(0.70)
    assert met["gain_rule_met"] and met["bound"] == 0.24 and abs(met["relative_gain"] - 0.30) < 1e-3
    short = summary(0.80)
    assert short["change_wins"] == 10 and short["median_gap"] > short["parent_iqr"]
    assert not short["gain_rule_met"]


def test_kernel_pairs_summary_reads_paired_ratios(monkeypatch):
    """Median, quartiles and wins come from the pair ratios, not from the sides' own medians."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "scripts"))
    import kernel_pairs

    parent = [1.0 + 0.01 * i for i in range(21)]
    # the change is 10% faster in every pair but the last two, where it is 10% slower
    ratio = [0.9] * 19 + [1.1] * 2
    pairs = {"faster": {"ratio": ratio, "parent": parent, "change": [p * r for p, r in zip(parent, ratio)]},
             "same": {"ratio": [1.0] * 21, "parent": parent, "change": list(parent)}}
    out = kernel_pairs.summarize(pairs, {"faster": True, "same": False})
    fast, same = out["faster"], out["same"]
    assert fast["pairs"] == 21 and fast["change_wins"] == 19 and fast["touched"]
    assert fast["median_ratio"] == fast["q1"] == fast["q3"] == 0.9 and fast["iqr"] == 0.0
    assert same["change_wins"] == 0 and same["median_ratio"] == 1.0 and not same["touched"]
    assert fast["median_s"]["parent"] == same["median_s"]["change"] == 1.1
    assert fast["median_s"]["change"] == round(1.1 * 0.9, 6)
