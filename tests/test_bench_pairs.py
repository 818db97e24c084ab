"""Arithmetic of scripts/bench_pairs.py: quartiles, pair counts and the
gain and bound rules."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class TestQuartiles:
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 11])
    def test_matches_numpy_percentile(self, n):
        values = list(np.random.default_rng(n).uniform(0.0, 1.0, n))
        q = bench_pairs.quartiles(values)
        expect = np.percentile(values, [25, 50, 75])
        assert [q["q1"], q["median"], q["q3"]] == pytest.approx(list(expect), rel=1e-15)

    def test_hand_values(self):
        assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == {"median": 3, "q1": 2, "q3": 4}
        assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


class TestPairCounts:
    def test_lower_is_better(self):
        counts = bench_pairs.pair_counts([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 1.0], "lower")
        assert counts == {"wins": 2, "ties": 1, "losses": 1}

    def test_higher_is_better(self):
        counts = bench_pairs.pair_counts([1.0, 2.0, 3.0], [1.5, 2.0, 2.5], "higher")
        assert counts == {"wins": 1, "ties": 1, "losses": 1}

    def test_unpaired_lengths_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.pair_counts([1.0, 2.0], [1.0], "lower")


class TestCompare:
    BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]

    def test_gain_rule_met(self):
        change = [v - 0.2 for v in self.BASE]
        out = bench_pairs.compare(self.BASE, change, "lower", 0.25)
        assert out["wins"] == 10 and out["ties"] == 0
        assert out["median_gap"] == pytest.approx(0.2)
        assert out["gain_rule_met"]
        assert out["worse_by"] == pytest.approx(-0.2)
        assert out["within_bound"]

    def test_nine_wins_suffice_and_eight_do_not(self):
        change = [v - 0.2 for v in self.BASE]
        change[0] = self.BASE[0]  # a tie counts for neither side
        assert bench_pairs.compare(self.BASE, change, "lower", 0.25)["gain_rule_met"]
        change[1] = self.BASE[1] + 0.5
        out = bench_pairs.compare(self.BASE, change, "lower", 0.25)
        assert (out["wins"], out["ties"], out["losses"]) == (8, 1, 1)
        assert not out["gain_rule_met"]

    def test_gap_must_exceed_base_iqr(self):
        base = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
        change = [v - 0.1 for v in base]  # wins every pair, gap 0.1 < IQR 0.9
        out = bench_pairs.compare(base, change, "lower", 0.25)
        assert out["wins"] == 10
        assert out["base_iqr"] == pytest.approx(0.9)
        assert not out["gain_rule_met"]

    def test_higher_is_better_bound(self):
        change = [v * 0.7 for v in self.BASE]
        out = bench_pairs.compare(self.BASE, change, "higher", 0.2)
        assert out["losses"] == 10
        assert out["worse_by"] == pytest.approx(0.3)
        assert not out["within_bound"]
        assert not out["gain_rule_met"]
