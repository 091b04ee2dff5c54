"""Smoke tests for the experiment command-line entry points.

Each table/figure module is a deliverable CLI; these tests invoke the
``main`` functions at tiny scale and assert the reports carry the
paper-shaped content.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import ablation, figure10, runner, table1, table2, table3, theory_figures

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def _baseline_stages(name: str) -> set[str]:
    return set(json.loads((BASELINES / name).read_text())["stages"])


def _run_traced(main, argv: list[str], tmp_path, name: str) -> tuple[str, dict]:
    """Run a CLI with a BENCH file and a trace; returns (report, payload).

    Asserts the trace holds exactly one root span, named after the CLI.
    """
    bench = tmp_path / f"BENCH_{name}.json"
    trace = tmp_path / f"trace_{name}.jsonl"
    report = main(argv + ["--bench-json", str(bench), "--trace-jsonl", str(trace)])
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    roots = [r["name"] for r in records if r["parent"] is None]
    assert roots == [name]
    return report, json.loads(bench.read_text())


def test_table1_main(capsys, tmp_path):
    report, payload = _run_traced(table1.main, ["--scale", "tiny"], tmp_path, "table1")
    assert "Table 1" in report
    assert "ISP" in report and "AS Graph" in report
    assert capsys.readouterr().out.strip()
    assert payload["name"] == "table1"
    assert set(payload["stages"]) == {"topologies", "stats", "render"}
    assert "counters" in payload and "rates" in payload


def test_table2_main_single_mode(tmp_path):
    report, payload = _run_traced(
        table2.main, ["--scale", "tiny", "--modes", "link"], tmp_path, "table2"
    )
    assert "After one link failure" in report
    assert "ISP, Weighted" in report
    assert "paper" in report  # side-by-side column
    assert set(payload["stages"]) == _baseline_stages("table2-tiny-link.json")
    assert "dijkstra_relaxations_per_case" not in payload


def test_table2_rejects_bad_ilm_mode():
    with pytest.raises(SystemExit):
        table2.main(["--ilm", "per-galaxy"])


def test_table2_evaluate_rejects_bad_accounting():
    from repro.experiments.networks import suite

    with pytest.raises(ValueError):
        table2.evaluate_network(
            suite(scale="tiny")[0], ilm_accounting="per-galaxy"
        )


def test_table3_main(tmp_path):
    report, payload = _run_traced(table3.main, ["--scale", "tiny"], tmp_path, "table3")
    assert "Table 3" in report
    assert "Bypass hops" in report
    assert set(payload["stages"]) == _baseline_stages("table3-tiny.json")


def test_figure10_main(tmp_path):
    report, payload = _run_traced(
        figure10.main, ["--scale", "tiny"], tmp_path, "figure10"
    )
    assert "edge-bypass" in report and "end-route" in report
    assert "= 1.00" in report
    assert set(payload["stages"]) == _baseline_stages("figure10-tiny.json")


def test_theory_figures_main(tmp_path):
    report, payload = _run_traced(theory_figures.main, [], tmp_path, "theory_figures")
    assert "MISMATCH" not in report
    assert report.count("OK") >= 16
    assert set(payload["stages"]) == {"constructions", "render"}


def test_runner_writes_output(tmp_path):
    out = tmp_path / "report.txt"
    report, payload = _run_traced(
        runner.main, ["--scale", "tiny", "--out", str(out)], tmp_path, "runner"
    )
    assert out.exists()
    for section in ("Table 1", "Table 2", "Table 3", "Figure 10", "Figures 2-5"):
        assert section in report
    assert payload["name"] == "runner"
    assert set(payload["sections"]) == {
        "table1", "table2", "table3", "figure10", "theory_figures",
    }
    assert payload["wall_clock_s"] >= sum(payload["sections"].values()) * 0.99


def test_table2_obs_records_trace_and_metrics(tmp_path):
    bench = tmp_path / "BENCH_table2.json"
    trace = tmp_path / "trace.jsonl"
    table2.main(
        [
            "--scale", "tiny", "--modes", "link",
            "--bench-json", str(bench),
            "--obs", "--trace-jsonl", str(trace),
        ]
    )
    payload = json.loads(bench.read_text())
    metrics = payload["metrics"]
    assert metrics["histograms"]["table2.path_stretch"]["count"] == payload["cases"]
    assert metrics["histograms"]["table2.pc_length"]["count"] > 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records[0]["name"] == "table2" and records[0]["parent"] is None
    names = {r["name"] for r in records}
    assert {"table2.cases", "table2.render"} <= names


def test_named_metrics_fan_in_is_jobs_invariant(tmp_path):
    """Chunk deltas carry the named metrics: jobs 2 equals jobs 1.

    Histogram sums may differ in the last bits, because the workers'
    partial sums are added in a different order.
    """
    metrics = {}
    for jobs in (1, 2):
        bench = tmp_path / f"BENCH_table2_jobs{jobs}.json"
        table2.main([
            "--scale", "tiny", "--modes", "link", "two-links", "--obs",
            "--jobs", str(jobs), "--bench-json", str(bench),
        ])
        metrics[jobs] = json.loads(bench.read_text())["metrics"]
    one, two = metrics[1], metrics[2]
    assert one["counters"] == two["counters"]
    assert set(one["histograms"]) == set(two["histograms"]) >= {
        "table2.path_stretch", "table2.pc_length",
    }
    for name, hist in one["histograms"].items():
        other = two["histograms"][name]
        assert hist["count"] > 0, name
        assert (hist["counts"], hist["count"]) == (other["counts"], other["count"]), name
        assert other["sum"] == pytest.approx(hist["sum"], rel=1e-9), name


def test_obs_flags_default_off(tmp_path):
    bench = tmp_path / "BENCH_table3.json"
    table3.main(["--scale", "tiny", "--max-links", "5", "--bench-json", str(bench)])
    payload = json.loads(bench.read_text())
    assert "metrics" not in payload  # nothing recorded without --obs
    assert "rates" in payload  # derived rates are always published


def test_bench_json_dash_writes_no_bench_but_keeps_the_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "trace.jsonl"
    table3.main([
        "--scale", "tiny", "--max-links", "5",
        "--bench-json", "-", "--trace-jsonl", str(trace),
    ])
    assert not (tmp_path / "results").exists()
    names = [json.loads(line)["name"] for line in trace.read_text().splitlines()]
    assert names == ["table3", "table3.bypasses", "table3.render"]


def test_profile_out_profiles_each_stage_span(tmp_path):
    from repro.obs.profile import PROFILER

    profile = tmp_path / "prof.collapsed"
    try:
        table3.main([
            "--scale", "tiny", "--max-links", "5", "--bench-json", "-",
            "--profile-out", str(profile),
        ])
    finally:
        PROFILER.enabled = False
        PROFILER.reset()
    stages = {line.split(";", 1)[0] for line in profile.read_text().splitlines()}
    # One capture per stage span; the root span is not profiled.
    assert stages == {"table3.bypasses", "table3.render"}


def test_ablation_main(tmp_path):
    report, _payload = _run_traced(
        ablation.main, ["--size", "40", "--pairs", "6"], tmp_path, "ablation"
    )
    assert "Decomposition" in report
    assert "RBPC" in report
    assert "Suurballe" in report
