"""The pairing, ratio and win logic of ``tools/ab.py``, driven by stub runs: no benchmark process starts."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def stub_run(values: dict[str, float], correct: bool = True) -> dict:
    """What ``run_benchmark`` returns for a run whose metrics read ``values``."""
    return {"result": {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                       "metrics": {name: {"value": v, "unit": "MiB"} for name, v in values.items()}},
            "facts": {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas",
                      "blas_threads": "1", "seconds": 20.0},
            "blas_core": "SkylakeX"}


class TestRunPairs:
    def test_a_discarded_parent_warm_up_then_the_first_side_alternates(self):
        calls = []

        def runner(side, seed):
            calls.append((side, seed))
            return len(calls)

        runs = ab.run_pairs(runner, [5, 6, 7])
        assert calls == [("parent", 5),
                         ("parent", 5), ("change", 5), ("change", 6), ("parent", 6), ("parent", 7), ("change", 7)]
        assert runs == {"parent": [2, 5, 6], "change": [3, 4, 7]}  # the warm-up, call 1, is in neither


class TestPairStats:
    PARENT, CHANGE = [10.0, 10.0, 10.0, 4.0], [8.0, 10.0, 12.0, 3.0]

    def test_lower_is_better(self):
        assert ab.pair_stats(self.PARENT, self.CHANGE, "lower", 0.1) == {
            "better": "lower", "change_wins": 2, "ties": 1, "pairs": 4, "median_ratio": 0.9,
            "ratios": [0.8, 1.0, 1.2, 0.75], "gain": False, "bound": 0.1, "worse_than_bound": False}

    def test_higher_is_better(self):
        stats = ab.pair_stats(self.PARENT, self.CHANGE, "higher", 0.1)
        assert (stats["change_wins"], stats["ties"], stats["median_ratio"]) == (1, 1, 0.9)

    def test_a_zero_parent_value(self):
        assert ab.ratio(0.0, 0.0) == 1.0 and math.isinf(ab.ratio(1.0, 0.0))


class TestVerdicts:
    # Ten pairs whose parent median is 50.0 and parent IQR 0.375, both exact in binary.
    PARENT = [50.0, 50.25, 49.75, 50.0, 50.0, 50.5, 49.5, 50.0, 50.25, 49.75]

    def gain(self, change, better="lower"):
        return ab.pair_stats(self.PARENT, change, better, 0.1)["gain"]

    def test_nine_wins_of_ten_and_a_median_gain_past_the_parent_iqr(self):
        assert ab.iqr(self.PARENT) == 0.375
        change = [p - 1.0 for p in self.PARENT]
        assert self.gain(change)
        for losses in (1, 2):
            lost = [p + 1.0 for p in self.PARENT[:losses]] + change[losses:]
            assert self.gain(lost) == (losses == 1), losses

    def test_a_tie_counts_for_neither_side(self):
        change = [p - 1.0 for p in self.PARENT]
        assert self.gain(self.PARENT[:1] + change[1:])  # 9 wins and a tie
        assert not self.gain(self.PARENT[:2] + change[2:])  # 8 wins and two ties

    def test_every_pair_won_by_no_more_than_the_parent_iqr_is_no_gain(self):
        assert not self.gain([p - 0.375 for p in self.PARENT])  # the medians differ by exactly the IQR
        assert self.gain([p - 0.5 for p in self.PARENT])

    def test_higher_is_better_gains_upward(self):
        assert self.gain([p + 1.0 for p in self.PARENT], "higher")
        assert not self.gain([p - 1.0 for p in self.PARENT], "higher")

    def test_worse_than_bound_is_a_fraction_of_the_parent_median(self):
        parent = [100.0] * 10

        def worse(change, better):
            return ab.pair_stats(parent, [change] * 10, better, 0.25)["worse_than_bound"]

        assert worse(74.0, "higher") and not worse(76.0, "higher") and not worse(200.0, "higher")
        assert worse(126.0, "lower") and not worse(124.0, "lower") and not worse(10.0, "lower")


class TestTrace0Block:
    def block(self):
        runs = {"parent": [stub_run({"peak_rss_mib": 48.0, "items_per_s": 100.0}),
                           stub_run({"peak_rss_mib": 48.5, "items_per_s": 90.0})],
                "change": [stub_run({"peak_rss_mib": 46.0, "items_per_s": 100.0}),
                           stub_run({"peak_rss_mib": 46.5, "items_per_s": 99.0}, correct=False)]}
        metrics = {"peak_rss_mib": {"better": "lower", "bound": 0.1}, "items_per_s": {"better": "higher", "bound": 0.25}}
        return ab.trace0_block(runs, [901, 902], metrics, {"parent": "a", "change": "b"})

    def test_sides_and_pairs(self):
        block = self.block()
        rss = block["change"]["metrics"]["peak_rss_mib"]
        assert (rss["median"], rss["min"], rss["iqr"], rss["n"], rss["values"]) == (46.25, 46.0, 0.25, 2, [46.0, 46.5])
        assert (block["change"]["correct"], block["change"]["failed"], block["change"]["attempted"]) == (False, 1, 8)
        assert block["parent"]["correct"] and block["parent"]["seeds"] == [901, 902]
        assert block["pairs"]["peak_rss_mib"]["change_wins"] == 2
        assert block["pairs"]["items_per_s"]["change_wins"] == 1 and block["pairs"]["items_per_s"]["ties"] == 1

    @pytest.mark.parametrize("name", ["BENCH_doa-eval.json", "BENCH_train-desk.json"])
    def test_layout_is_the_committed_bench_files(self, name):
        committed = json.loads((ROOT / name).read_text())["trace0"]  # each trace0 is a block this tool wrote
        block = self.block()

        def keys(tree):
            return {k: keys(v) if isinstance(v, dict) and k not in ("metrics", "pairs") else None
                    for k, v in tree.items()}

        assert keys(block) == keys(committed)
        for side in ab.SIDES:
            assert block[side]["metrics"]["peak_rss_mib"].keys() == committed[side]["metrics"]["peak_rss_mib"].keys()
        assert block["pairs"]["peak_rss_mib"].keys() == committed["pairs"]["peak_rss_mib"].keys()
