"""scripts/run_gesture_experiment.py, run as a user runs it."""
import csv
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_gesture_experiment.py"


def test_gesture_experiment_writes_the_method_grid(tmp_path):
    out = tmp_path / "results.csv"
    subprocess.run([sys.executable, str(_SCRIPT), "--per-cell", "2", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    with open(out, newline="") as fh:
        rows = [row[:4] for row in csv.reader(fh)]
    assert rows == [
        ["method", "r", "accuracy_mean", "accuracy_var"],
        ["grassmann SVD SVM", "5", "95.0", "37.5"],
        ["laplace_svd SVD SVM", "5", "92.5", "37.5"],
        ["gaussian_svd SVD SVM", "5", "85.0", "87.5"],
        ["PCA KNN", "30", "90.0", "87.5"],
        ["PCA LocSVM16", "30", "90.0", "25.0"],
        ["PCA LocSVM64", "30", "95.0", "37.5"],
    ]
