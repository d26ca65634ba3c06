"""CLI and interpreter-gate tests: exit codes, .sbp verification, and
the ``HBMSIM_LINT`` pre-execution gate."""

from pathlib import Path

import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.program import TestProgram
from repro.config import LintMode, lint_mode
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.errors import HbmSimError, LintError
from repro.lint.__main__ import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# -- exit codes ----------------------------------------------------------


def test_clean_sbp_exits_zero(capsys):
    assert main([str(FIXTURES / "clean.sbp")]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize("fixture,rule", [
    ("double_act.sbp", "P001"),
    ("budget_overflow.sbp", "P004"),
    ("late_ref.sbp", "P005"),
])
def test_violating_sbp_exits_nonzero_with_rule_id(capsys, fixture, rule):
    assert main([str(FIXTURES / fixture)]) == 1
    out = capsys.readouterr().out
    assert rule in out
    # Each fixture is built to trip exactly one rule.
    for other in ("P001", "P002", "P003", "P004", "P005", "P006"):
        if other != rule:
            assert other not in out


def test_missing_path_is_usage_error(capsys):
    assert main(["/no/such/path.sbp"]) == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unassemblable_sbp_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.sbp"
    bad.write_text("FROB 1 2 3\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    assert "bad.sbp" in capsys.readouterr().err


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("P001", "P006", "D101", "D105"):
        assert rule in out


def test_malformed_baseline_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("{oops", encoding="utf-8")
    source = tmp_path / "mod.py"
    source.write_text("x = 1\n", encoding="utf-8")
    assert main([str(source), "--baseline", str(bad)]) == 2


def test_python_tree_linting(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nx = np.random.rand()\n",
                     encoding="utf-8")
    assert main([str(dirty)]) == 1
    assert "D101" in capsys.readouterr().out
    clean = tmp_path / "clean.py"
    clean.write_text("import numpy as np\nr = np.random.default_rng(0)\n",
                     encoding="utf-8")
    assert main([str(clean)]) == 0


def test_json_output(tmp_path, capsys):
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main([str(dirty), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "D102"


def test_repo_sources_exit_zero():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert main([str(src)]) == 0


# -- output formats ------------------------------------------------------


def test_format_json_is_byte_identical_to_json_flag(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main([str(dirty), "--json"]) == 1
    via_alias = capsys.readouterr().out
    assert main([str(dirty), "--format=json"]) == 1
    via_format = capsys.readouterr().out
    assert via_alias == via_format


def test_json_conflicts_with_other_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "clean.sbp"), "--json", "--format=sarif"])
    assert excinfo.value.code == 2


def test_sarif_output(capsys):
    import json

    assert main([str(FIXTURES / "double_act.sbp"),
                 "--format=sarif", "--no-baseline"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"P001", "P006", "D101", "D105"} <= rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "P001"
    assert result["level"] == "error"
    assert result["locations"][0]["logicalLocations"][0][
        "fullyQualifiedName"].startswith("double_act.sbp@")


def test_sarif_source_locations_carry_line_numbers(tmp_path, capsys):
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main([str(dirty), "--format=sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    location = payload["runs"][0]["results"][0]["locations"][0]
    physical = location["physicalLocation"]
    assert physical["artifactLocation"]["uri"].endswith("dirty.py")
    assert physical["region"]["startLine"] == 2


def test_sarif_severity_mapping(capsys):
    import json

    assert main([str(FIXTURES / "budget_overflow.sbp"),
                 "--format=sarif", "--no-baseline"]) == 1
    payload = json.loads(capsys.readouterr().out)
    levels = {r["ruleId"]: r["level"]
              for r in payload["runs"][0]["results"]}
    assert levels["P004"] == "warning"  # protocol -> warning


# -- baseline rot gate ---------------------------------------------------


def _rotted_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        '{"version": 1, "suppressions": ['
        '{"rule": "P001", "location": "nonexistent.sbp",'
        ' "reason": "rotted"}]}\n', encoding="utf-8")
    return baseline


def test_fail_unused_exits_one_on_rotted_baseline(tmp_path, capsys):
    baseline = _rotted_baseline(tmp_path)
    assert main([str(FIXTURES / "clean.sbp"),
                 "--baseline", str(baseline)]) == 0  # note only
    assert main([str(FIXTURES / "clean.sbp"),
                 "--baseline", str(baseline), "--fail-unused"]) == 1
    assert "unused baseline suppression" in capsys.readouterr().err


def test_prune_rewrites_baseline(tmp_path, capsys):
    import json

    baseline = _rotted_baseline(tmp_path)
    assert main([str(FIXTURES / "clean.sbp"),
                 "--baseline", str(baseline), "--prune"]) == 0
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload == {"version": 1, "suppressions": []}
    # pruned baseline now passes the rot gate
    assert main([str(FIXTURES / "clean.sbp"),
                 "--baseline", str(baseline), "--fail-unused"]) == 0


def test_prune_keeps_used_suppressions(tmp_path, capsys):
    import json

    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "suppressions": [
            {"rule": "P001", "location": "double_act.sbp@1",
             "reason": "kept"},
            {"rule": "P002", "location": "nonexistent.sbp",
             "reason": "rotted"},
        ]}), encoding="utf-8")
    assert main([str(FIXTURES / "double_act.sbp"),
                 "--baseline", str(baseline), "--prune"]) == 0
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert [s["rule"] for s in payload["suppressions"]] == ["P001"]


def test_packaged_baseline_has_no_rot():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert main([str(src), "--routines", "--fail-unused"]) == 0


# -- HBMSIM_LINT interpreter gate ----------------------------------------


def _violating_program():
    program = TestProgram("gate_bad")
    row = RowAddress(0, 0, 0, 100)
    program.activate(row)
    program.activate(row.with_row(101))
    return program


def test_lint_mode_parsing(monkeypatch):
    # Unrecognized values (warn-once fallback) are covered in
    # tests/lint/test_config.py.
    for raw, expected in [("", LintMode.OFF), ("off", LintMode.OFF),
                          ("0", LintMode.OFF), ("warn", LintMode.WARN),
                          ("1", LintMode.WARN),
                          ("strict", LintMode.STRICT),
                          ("online", LintMode.ONLINE)]:
        monkeypatch.setenv("HBMSIM_LINT", raw)
        assert lint_mode() is expected
    monkeypatch.delenv("HBMSIM_LINT")
    assert lint_mode() is LintMode.OFF


def test_strict_gate_raises_before_execution(monkeypatch):
    monkeypatch.setenv("HBMSIM_LINT", "strict")
    device = HBM2Stack()
    with pytest.raises(LintError) as excinfo:
        Interpreter(device).run(_violating_program())
    assert excinfo.value.findings[0].rule == "P001"
    assert isinstance(excinfo.value, HbmSimError)
    # Strict mode must fire *before* the first command touches the
    # device: no time passed, no ACT was issued.
    assert device.now_ns == 0.0
    assert device.stats.acts == 0


def test_warn_gate_prints_and_executes(monkeypatch, capsys):
    monkeypatch.setenv("HBMSIM_LINT", "warn")
    program = TestProgram("gate_ok")
    program.hammer(RowAddress(0, 0, 0, 100), 10, t_on=5.0)  # P003
    result = Interpreter(HBM2Stack()).run(program)
    assert result.commands_executed == 1
    assert "P003" in capsys.readouterr().err


def test_off_gate_is_default_noop(monkeypatch, capsys):
    monkeypatch.delenv("HBMSIM_LINT", raising=False)
    program = TestProgram("gate_quiet")
    program.hammer(RowAddress(0, 0, 0, 100), 10, t_on=5.0)
    Interpreter(HBM2Stack()).run(program)
    assert capsys.readouterr().err == ""
