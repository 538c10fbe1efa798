"""CLI profiling: ``repro profile`` and the ``--profile`` options.

Includes the acceptance check that a ``repro flows --profile`` trace
explains at least 95% of each flow's wall time through stage spans.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate_trace

FLOW_STAGES = {"analyze", "synthesize", "lint", "techmap", "opt", "sta",
               "pnr", "sta_routed", "link"}


def load(path) -> dict:
    doc = json.loads(path.read_text())
    return validate_trace(doc)


class TestFlowsProfile:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "flows.json"
        assert main(["flows", "--profile", str(path)]) == 0
        return load(path)

    def test_schema_and_roots(self, trace):
        assert trace["schema"] == "repro-trace/v1"
        names = [s["name"] for s in trace["spans"]]
        assert names == ["flow:osss", "flow:vhdl"]

    def test_stage_spans_cover_95_percent(self, trace):
        for flow in trace["spans"]:
            assert {c["name"] for c in flow["children"]} <= FLOW_STAGES
            covered = sum(c["dur_s"] for c in flow["children"])
            assert covered >= 0.95 * flow["dur_s"], (
                f"{flow['name']}: stage spans cover only "
                f"{covered / flow['dur_s']:.1%} of the flow wall time"
            )

    def test_flow_meta_carries_results(self, trace):
        for flow in trace["spans"]:
            assert flow["meta"]["cells"] > 0
            assert flow["meta"]["area_ge"] > 0


class TestProfileCommand:
    def test_synth_target_text_output(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        assert main(["profile", "--target", "synth",
                     "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert "synthesize" in out
        assert "total:" in out
        doc = load(path)
        assert doc["name"] == "synth"
        assert doc["spans"][0]["name"] == "synthesize"

    def test_synth_target_json_stdout(self, capsys):
        assert main(["profile", "--target", "synth",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_trace(doc) is doc

    def test_synth_profile_flag(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        assert main(["synth", "--profile", str(path)]) == 0
        doc = load(path)
        names = [s["name"] for s in doc["spans"]]
        assert "synthesize" in names and "lint" in names


class TestInjectProfile:
    def test_inject_profile_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "inject.json"
        report_path = tmp_path / "report.json"
        assert main(["inject", "--faults", "2",
                     "--profile", str(trace_path),
                     "--output", str(report_path)]) == 0
        doc = load(trace_path)
        names = [s["name"] for s in doc["spans"]]
        assert names == ["build_injector", "campaign"]
        campaign = doc["spans"][1]
        children = {c["name"] for c in campaign["children"]}
        assert {"golden", "replay"} <= children
        replay = next(c for c in campaign["children"]
                      if c["name"] == "replay")
        # One child span per injected fault, annotated with its outcome.
        assert len(replay["children"]) == 2
        assert all(c["meta"]["outcome"] in
                   ("masked", "sdc", "detected", "hang")
                   for c in replay["children"])
        assert campaign["meta"]["sim_stats"]["backend"] == "rtl"

    def test_netlist_bitparallel_profile_has_lane_batch_span(self, tmp_path,
                                                            capsys):
        trace_path = tmp_path / "inject.json"
        assert main(["inject", "--flow", "netlist", "--backend",
                     "bitparallel", "--faults", "8",
                     "--profile", str(trace_path),
                     "--output", str(tmp_path / "report.json")]) == 0
        campaign = load(trace_path)["spans"][1]
        replay = next(c for c in campaign["children"]
                      if c["name"] == "replay")
        lanes = [c for c in replay["children"]
                 if c["name"].startswith("lanes[")]
        assert lanes, [c["name"] for c in replay["children"]]
        for batch in lanes:
            outcomes = batch["meta"]["outcomes"]
            assert sum(outcomes.values()) == batch["meta"]["faults"]
            kinds = batch["meta"]["kinds"]
            assert sum(kinds.values()) == batch["meta"]["faults"]
        # Every kind packs into lanes: nothing replays on the scalar path.
        resilience = campaign["meta"]["resilience"]
        assert resilience["lane_faults"] == resilience["simulated"]
        report = json.loads((tmp_path / "report.json").read_text())
        packed = {kind for batch in lanes for kind in batch["meta"]["kinds"]}
        assert packed == {fault["kind"] for fault in report["faults"]}
