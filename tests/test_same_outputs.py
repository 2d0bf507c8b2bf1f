import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _tree(root: Path, profile: dict) -> Path:
    (root / "solve" / "plotdata").mkdir(parents=True)
    (root / "solve" / "report.json").write_text(json.dumps(
        {"generated_at": "2026-01-01T00:00:00Z",
         "payload": {"suite": "solve", "records": [{"name": "a", "pass": True}]},
         "profile": profile}))
    (root / "solve" / "solution.csv").write_text("x0,u\n-8.0,0.0\n")
    (root / "solve" / "plotdata" / "empty.csv").write_text("empty\n")
    return root


@pytest.fixture
def trees(tmp_path):
    return (_tree(tmp_path / "a", {"wall_s": 1.0}),
            _tree(tmp_path / "b", {"wall_s": 1.0}))


def test_identical_trees(trees, capsys):
    assert same_outputs.main([str(t) for t in trees]) == 0
    assert capsys.readouterr().out == ""


def test_report_differing_only_in_profile_and_time(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"wall_s": 1.0, "peak_rss_mb": 60.0, "linear_solves": 3})
    b = _tree(tmp_path / "b", {"wall_s": 2.5, "peak_rss_mb": 75.5, "linear_solves": 3})
    doc = json.loads((b / "solve" / "report.json").read_text())
    doc["generated_at"] = "2027-06-30T12:00:00Z"
    (b / "solve" / "report.json").write_text(json.dumps(doc, indent=2))
    assert same_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("counters", [{"linear_solves": 4}, {}])
def test_profile_counter_change_is_reported(tmp_path, capsys, counters):
    # one more solve, or a counter gone: the work changed, not only the time
    a = _tree(tmp_path / "a", {"wall_s": 1.0, "linear_solves": 3})
    b = _tree(tmp_path / "b", {"wall_s": 1.0, **counters})
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {Path('solve', 'report.json')}"]


def test_payload_change_is_reported(trees, capsys):
    a, b = trees
    doc = json.loads((b / "solve" / "report.json").read_text())
    doc["payload"]["records"][0]["pass"] = False
    (b / "solve" / "report.json").write_text(json.dumps(doc))
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {Path('solve', 'report.json')}"]


def test_one_changed_csv_byte(trees, capsys):
    a, b = trees
    (b / "solve" / "solution.csv").write_text("x0,u\n-8.0,0.1\n")
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {Path('solve', 'solution.csv')}"]


def test_missing_and_extra_files(trees, capsys):
    a, b = trees
    (b / "solve" / "plotdata" / "empty.csv").unlink()
    (b / "solve" / "extra.csv").write_text("x\n")
    assert same_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"missing: {Path('solve', 'plotdata', 'empty.csv')}",
        f"extra: {Path('solve', 'extra.csv')}",
    ]
