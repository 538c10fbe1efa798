"""The ``repro lint``/``repro analyze`` commands: exits, formats, files."""

import json

from repro.cli import main

BAD = "tests.analyze.designs:build"
CLEAN = "tests.analyze.designs:build_clean"


class TestExitCodes:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lint", "--design", CLEAN]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_seeded_design_exits_one(self, capsys):
        assert main(["lint", "--design", BAD]) == 1
        out = capsys.readouterr().out
        assert "OSS102" in out
        assert "OSS301" in out
        assert "RTL401" in out

    def test_strict_promotes_warnings(self, capsys):
        warny = "tests.analyze.designs:build_warny"
        assert main(["lint", "--design", warny]) == 0
        assert main(["lint", "--design", warny, "--strict"]) == 1

    def test_no_design_lints_keeps_hard_errors(self, capsys):
        assert main(["lint", "--design", BAD, "--no-design-lints"]) == 1
        assert "RTL401" not in capsys.readouterr().out

    def test_bad_design_spec_is_a_usage_error(self, capsys):
        assert main(["lint", "--design", "no-colon-here"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro: error: --design must look like")


class TestFormats:
    def test_json_format_parses(self, capsys):
        main(["lint", "--design", BAD, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        codes = [d["code"] for d in document["diagnostics"]]
        assert "OSS102" in codes
        assert document["summary"]["errors"] >= 3

    def test_sarif_format_parses(self, capsys):
        main(["lint", "--design", BAD, "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.sarif"
        code = main(["lint", "--design", BAD, "--format", "sarif",
                     "--output", str(target)])
        assert code == 1
        document = json.loads(target.read_text())
        assert document["runs"][0]["results"]
        assert str(target) in capsys.readouterr().out


PROBE = "tests.store.test_fingerprint:make_probe"


class TestAnalyzeCommand:
    def test_text_summary(self, capsys):
        assert main(["analyze", "--design", PROBE, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "netlist analysis:" in out
        assert "equivalent fault sites merged:" in out

    def test_json_is_the_testability_schema(self, capsys):
        main(["analyze", "--design", PROBE, "--no-cache",
              "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-testability/v1"
        assert document["scores"]
        assert {"equivalence", "dominance", "diagnostics"} \
            <= set(document)

    def test_output_file_and_cache_counters(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        cache = tmp_path / "cache"
        assert main(["analyze", "--design", PROBE, "--cache-dir",
                     str(cache), "--format", "json", "--output",
                     str(target)]) == 0
        captured = capsys.readouterr()
        assert str(target) in captured.out
        assert "0 hit(s), 4 miss(es)" in captured.err
        cold = target.read_text()

        assert main(["analyze", "--design", PROBE, "--cache-dir",
                     str(cache), "--format", "json", "--output",
                     str(target)]) == 0
        assert "4 hit(s), 0 miss(es)" in capsys.readouterr().err
        assert target.read_text() == cold

