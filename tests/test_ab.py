"""`benchmarks/ab.py --verdict` re-renders the committed A/B claims."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "benchmarks" / "ab.py"
REPORTS = ROOT / "benchmarks" / "reports"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(text: str, workload: str, metric: str) -> str:
    block = text.split(f"\n{workload}: ", 1)[1]
    return next(line for line in block.splitlines() if line.split()[0] == metric)


@pytest.mark.parametrize("report, workload, metric, medians, wins, verdict", [
    ("ab_gather_unfold.json", "vision_ttt", "time_to_train_s", ("17.82", "16.04"), "11/12",
     "better"),
    ("ab_free_as_walk.json", "vision_ttt", "peak_rss_mb", ("120.94", "78.46"), "14/14",
     "better"),
    ("ab_eval_batch.json", "smallstep_campaign", "peak_rss_mb", ("58.64", "50.36"), "10/10",
     "better"),
    ("ab_sut_keeps_model.json", "serve_forward", "peak_rss_mb", ("65.63", "59.98"), "10/10",
     "better"),
    # A change that claims no gain: the outcome is the same on every pair.
    ("ab_one_kernel_path.json", "vision_ttt", "epochs_to_target", ("12.00", "12.00"), "0/3",
     "same"),
    ("ab_one_kernel_path.json", "smallstep_campaign", "epochs_to_target", ("23.00", "23.00"),
     "0/3", "same"),
    # The derived row, time_to_train_s / epochs_to_target, per pair: both
    # sides ran 12 epochs, so it reads as time_to_train_s does.
    ("ab_gather_unfold.json", "vision_ttt", "ttt_per_epoch_s", ("1.48", "1.34"), "11/12",
     "better"),
])
def test_verdict_rerenders_committed_claims(report, workload, metric, medians, wins, verdict):
    done = subprocess.run([sys.executable, str(AB), "--verdict", str(REPORTS / report)],
                          capture_output=True, text=True, check=True)
    row = _row(done.stdout, workload, metric).split()
    assert (row[1], row[4], row[7], row[-1]) == (*medians, wins, verdict)


def test_unpaired_report_exits_1(tmp_path):
    runs = [{"seed": 1, "side": "parent", "wall_s": 1.0}]
    bad = tmp_path / "ab_bad.json"
    bad.write_text(json.dumps({"runs": {"serve_forward": runs}}))
    done = subprocess.run([sys.executable, str(AB), "--verdict", str(bad)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "seed 1: 1 runs" in done.stderr


def test_runs_record_their_process_faults_and_system_cpu(tmp_path, capsys):
    """Each side's child is read with getrusage around it; --verdict prints the medians."""
    ab = _ab()
    e2e = tmp_path / "benchmarks" / "e2e"
    e2e.mkdir(parents=True)
    (e2e / "run.py").write_text(
        "def measure(workload, seed, seconds, trace):\n"
        "    touched = b'x' * (64 << 20)  # 16k pages written: minor faults\n"
        "    return {'result': {'correct': 1, 'attempted': 1, 'failed': 0,\n"
        "                       'metrics': {'wall_s': {'value': float(seed)}}},\n"
        "            'fingerprint': {'seed': seed}, 'provenance': {}}\n")
    runs = [ab.record(1, side, ab.run_side(tmp_path, "serve_forward", 1))
            for side in ("parent", "change")]
    assert all(r["minor_faults"] > 16_000 and r["sys_cpu_s"] >= 0 for r in runs)
    report = tmp_path / "ab_fake.json"
    report.write_text(json.dumps({"runs": {"serve_forward": runs}}))
    assert ab.verdict([report]) == 0
    text = capsys.readouterr().out
    for key in ("minor_faults", "sys_cpu_s"):
        row = _row(text, "serve_forward", key).split()
        assert row[1:3] == [f"{runs[0][key]:.2f}", f"{runs[1][key]:.2f}"]


class TestJudge:
    def test_ten_pair_win_beyond_the_spread_is_better(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        verdict = _ab().judge(parent, [p - 2.0 for p in parent], lower_is_better=True)
        assert (verdict["wins"], verdict["verdict"]) == (10, "better")

    def test_win_inside_the_spread_is_unresolved(self):
        parent = [10.0 + i for i in range(10)]
        verdict = _ab().judge(parent, [p - 0.5 for p in parent], lower_is_better=True)
        assert (verdict["wins"], verdict["verdict"]) == (10, "unresolved")

    def test_too_few_pairs_is_unresolved(self):
        verdict = _ab().judge([100.0], [60.0], lower_is_better=True)
        assert verdict["verdict"] == "unresolved"

    def test_higher_is_better_and_equal_counts(self):
        ab = _ab()
        parent = [5.0 + 0.01 * i for i in range(10)]
        assert ab.judge(parent, [p - 1 for p in parent], False)["verdict"] == "worse"
        assert ab.judge([12] * 10, [12] * 10, True)["verdict"] == "same"
