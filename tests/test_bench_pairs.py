"""tools/bench_pairs.py runs two checkouts' perfbench in alternating pairs."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def stub_checkout(root, log, op_s, last_line=None, exit_code=0):
    """A checkout whose perfbench/run.py logs its side and arguments and prints fixed JSON."""
    result = {"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "op_s_p50": {"value": op_s, "unit": "s"},
        "psnr_db": {"value": 33.0, "unit": "dB"}}}
    line = json.dumps(result) if last_line is None else last_line
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import sys
        with open({str(log)!r}, "a") as fh:
            fh.write({root.name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
        print("workload report")
        print({line!r})
        sys.exit({exit_code})
        """))
    return root


def test_pairs_alternate_share_seeds_and_summarize(tmp_path):
    log = tmp_path / "log.txt"
    parent = stub_checkout(tmp_path / "parent", log, 0.5)
    change = stub_checkout(tmp_path / "change", log, 0.4)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "train-n33",
                             "--workload", "fit-256", "--pairs", "3", "--seconds", "2",
                             "--out", str(out)]) == 0
    runs = [line.split() for line in log.read_text().splitlines()]
    sides_seeds = [("parent", "1"), ("change", "1"),
                   ("change", "2"), ("parent", "2"),
                   ("parent", "3"), ("change", "3")]
    assert [(run[0], run[run.index("--seed") + 1]) for run in runs] == sides_seeds * 2
    assert [run[1:3] for run in runs] == (
        [["--workload", "train-n33"]] * 6 + [["--workload", "fit-256"]] * 6)
    for run in runs:
        assert run[run.index("--seconds") + 1] == "2.0"
        assert run[run.index("--trace") + 1] == "0"
    report = json.loads(out.read_text())
    assert set(report["host"]) >= {"nproc", "python", "numpy"}
    assert report["commits"] == {"parent": None, "change": None}  # stubs are not git checkouts
    assert list(report["workloads"]) == ["train-n33", "fit-256"]
    for result in report["workloads"].values():
        assert [(pair["seed"], pair["first"]) for pair in result["pairs"]] == [
            (1, "parent"), (2, "change"), (3, "parent")]
        assert result["pairs"][0]["change"] == {
            "metrics": {"op_s_p50": 0.4, "psnr_db": 33.0}, "attempted": 5, "failed": 0}
        assert result["summary"]["op_s_p50"] == {
            "parent_median": 0.5, "change_median": 0.4, "parent_quartiles": [0.5, 0.5],
            "change_lower": "3 of 3"}
        assert result["summary"]["psnr_db"]["change_lower"] == "0 of 3"


@pytest.mark.parametrize("last_line,exit_code", [
    (None, 1), ("operations timed 5", 0), ('{"metrics": 3}', 0)],
    ids=["exit-code", "no-json", "no-metrics"])
def test_a_failed_run_exits_2_without_a_report(tmp_path, capsys, last_line, exit_code):
    log = tmp_path / "log.txt"
    parent = stub_checkout(tmp_path / "parent", log, 0.5)
    change = stub_checkout(tmp_path / "change", log, 0.4, last_line, exit_code)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "fit-256",
                             "--pairs", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "change run failed" in capsys.readouterr().err
