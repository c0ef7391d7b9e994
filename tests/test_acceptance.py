"""Acceptance gate: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
output.
"""

import itertools
import json
import math
import random
import time

import pytest

from confcal.adaptive import StaticRetriever, answer_adaptive, sweep
from confcal.cli import EXIT_OK, main
from confcal.client import MockBackend, ModelClient
from confcal.confidence import normalized_confidence
from confcal.harness import DatasetExample
from confcal.metrics import (
    accuracy_from_bins,
    auroc,
    ece,
    ece_from_bins,
    equal_mass_bins,
    retrieval_efficiency,
)
from confcal.sandbox import SandboxConfig, ToyTask, run_paradigm_comparison

from conftest import CountingClient, answer_entry, load_bin_csv, make_record, sweep_rows, yes_no_entry


def report(criterion, ok=True):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


class TestCriterion1BinTableOracles:
    def test_published_bin_aggregates(self):
        start = time.perf_counter()

        baseline = {
            "bins_gsm8k_baseline.csv": (0.069, 92.49),
            "bins_boolq_baseline.csv": (0.149, 84.40),
        }
        for name, (expected_ece, expected_acc) in baseline.items():
            bins = load_bin_csv(name)
            assert ece_from_bins(bins) == pytest.approx(expected_ece, abs=2e-3), name
            assert accuracy_from_bins(bins) * 100 == pytest.approx(expected_acc, abs=0.1), name

        sft = {
            "bins_gsm8k_sft.csv": 0.030,
            "bins_boolq_sft.csv": 0.013,
        }
        for name, expected_ece in sft.items():
            bins = load_bin_csv(name)
            assert ece_from_bins(bins) == pytest.approx(expected_ece, abs=2e-3), name

        assert time.perf_counter() - start < 1.0
        report("1 bin-table ECE/accuracy oracles")


class TestCriterion2EfficiencyArithmetic:
    def test_reference_efficiency_values(self):
        start = time.perf_counter()
        assert retrieval_efficiency(9.09, 25.0) == pytest.approx(0.36, abs=0.01)
        assert retrieval_efficiency(17.77, 100.0) == pytest.approx(0.18, abs=0.01)
        assert retrieval_efficiency(18.75, 57.6) == pytest.approx(0.33, abs=0.01)
        assert time.perf_counter() - start < 1.0
        report("2 retrieval-efficiency arithmetic")


class TestCriterion3Scope:
    def test_model_scale_results_out_of_scope(self):
        # Hosted multi-billion-parameter model results cannot be reproduced
        # at desk scale; criteria 4-9 are the substituted property checks.
        report("3 model-scale results substituted by property criteria (by design)")


class TestCriterion4AurocOracle:
    def test_rank_auroc_equals_pairwise_oracle(self):
        start = time.perf_counter()
        rng = random.Random(12345)
        for trial in range(100):
            n = rng.randint(2, 1000)
            # coarse grid forces plenty of ties
            scores = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]) for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels):
                labels[0] = not labels[0]

            pos = [s for s, l in zip(scores, labels) if l]
            neg = [s for s, l in zip(scores, labels) if not l]
            wins = sum(
                1.0 if p > q else 0.5 if p == q else 0.0
                for p, q in itertools.product(pos, neg)
            )
            oracle = wins / (len(pos) * len(neg))
            records = [make_record(i, l, s) for i, (s, l) in enumerate(zip(scores, labels))]
            assert auroc(records) == pytest.approx(oracle, abs=1e-12)
        assert time.perf_counter() - start < 10.0
        report("4 AUROC rank statistic == pairwise oracle")


class TestCriterion5EceProperties:
    def test_ece_properties(self):
        # perfectly calibrated
        records = []
        for i in range(50):
            records.append(make_record(2 * i, True, 0.5))
            records.append(make_record(2 * i + 1, False, 0.5))
        assert ece(records) <= 0.01

        # constant confidence, arranged so every bin shares the accuracy
        for conf, acc_tenths in [(0.9, 6), (0.3, 8), (1.0, 5)]:
            records = [make_record(i, i % 10 < acc_tenths, conf) for i in range(100)]
            assert ece(records, 10) == pytest.approx(
                abs(conf - acc_tenths / 10), abs=1e-12
            )

        # aggregate form agrees with the record-level form on random inputs
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 300)
            records = [
                make_record(i, rng.random() < 0.6, rng.random()) for i in range(n)
            ]
            bins = equal_mass_bins(records, 10)
            agg = ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins])
            assert ece(records, 10) == pytest.approx(agg, abs=1e-12)
        report("5 ECE properties")


class TestCriterion6ConfidenceAlgebra:
    def test_confidence_algebra(self):
        rng = random.Random(7)
        for _ in range(20):
            k = rng.randint(1, 10)
            logprobs = [rng.uniform(-300, 0) for _ in range(k)]
            cands = {f"c{i}": lp for i, lp in enumerate(logprobs)}
            values = [normalized_confidence(cands, c) for c in cands]
            assert sum(values) == pytest.approx(1.0, abs=1e-12)

            delta = rng.uniform(-50, 0)
            shifted = {c: lp + delta for c, lp in cands.items()}
            for cand, val in zip(shifted, values):
                assert normalized_confidence(shifted, cand) == pytest.approx(val, abs=1e-12)

            best = max(range(k), key=lambda i: logprobs[i])
            assert values[best] == max(values)

        underflow = {"a": -2000.0, "b": -2001.0}
        expected = math.e / (1.0 + math.e)
        assert normalized_confidence(underflow, "a") == pytest.approx(expected, abs=1e-9)
        report("6 confidence algebra incl. underflow")


class TestCriterion7AdaptiveController:
    @staticmethod
    def script():
        entries = []
        for i in range(4):
            if i < 2:
                entries.append(answer_entry("Lyon"))
                entries.append(yes_no_entry(0.4, 0.6))
            else:
                entries.append(answer_entry("Paris"))
                entries.append(yes_no_entry(0.95, 0.01))
        for _ in range(4):
            entries.append(answer_entry("Paris"))
            entries.append(yes_no_entry(0.9, 0.05))
        return entries

    @staticmethod
    def examples():
        return [
            DatasetExample(id=f"e{i}", input=f"q{i}?", gold="Paris", context="passage")
            for i in range(4)
        ]

    def test_hand_traced_outcomes(self):
        # single-example traces of the controller's three branches
        client = ModelClient(MockBackend([answer_entry("Paris"), yes_no_entry(0.95, 0.01)]))
        outcome = answer_adaptive(self.examples()[0], 0.7, client, None)
        assert (outcome.retrieved, outcome.final_answer) == (False, "Paris")

        client = ModelClient(
            MockBackend(
                [
                    answer_entry("Lyon"),
                    yes_no_entry(0.3, 0.7),
                    answer_entry("Paris"),
                    yes_no_entry(0.8, 0.2),
                ]
            )
        )
        retriever = StaticRetriever({"e0": "passage"})
        outcome = answer_adaptive(self.examples()[0], 0.7, client, retriever)
        assert (outcome.retrieved, outcome.final_answer) == (True, "Paris")
        assert outcome.final_conf == pytest.approx(0.8)

        client = ModelClient(
            MockBackend(
                [
                    answer_entry("Lyon"),
                    yes_no_entry(0.3, 0.7),
                    answer_entry("Nice"),
                    yes_no_entry(0.2, 0.8),
                ]
            )
        )
        outcome = answer_adaptive(self.examples()[0], 0.7, client, retriever)
        assert (outcome.retrieved, outcome.final_answer) == (True, "Lyon")

    def test_sweep_properties(self):
        client = CountingClient(MockBackend(self.script()))
        retriever = StaticRetriever({f"e{i}": "passage" for i in range(4)})
        taus = [0.0, 0.3, 0.5, 0.96, 1.01]
        rows = sweep_rows(sweep(self.examples(), taus, client, retriever, "substring"), taus)

        rates = [row.retrieval_rate_pct for row in rows]
        assert rates == sorted(rates)
        assert rows[0].retrieval_rate_pct == 0.0
        assert rows[-1].retrieval_rate_pct == 100.0
        assert client.pass1_generations == 4

        by_tau = {row.tau: row for row in rows}
        assert by_tau[0.5].gain_pp == pytest.approx(50.0)
        assert by_tau[0.5].efficiency == pytest.approx(1.0)
        report("7 adaptive controller + sweep")


class TestCriterion8Sandbox:
    def test_calibrated_vs_sharpened_contrast(self):
        start = time.perf_counter()
        import numpy as np

        task = ToyTask(np.array([0.7, 0.3]))
        _, summary = run_paradigm_comparison(task, SandboxConfig())

        assert summary["ce_final_kl"] < 0.01
        for arm in ("advantage", "dpo"):
            assert summary[f"{arm}_final_max_prob"] > 0.99
            # sup-norm gap to the data distribution
            assert summary[f"{arm}_final_max_prob"] - 0.7 > 0.25
        assert time.perf_counter() - start < 60.0
        report("8 sandbox calibrated-vs-sharpened contrast")


class TestCriterion9Determinism:
    def build_run(self, tmp_path):
        examples = []
        entries_pass1 = []
        entries_pass2 = []
        rng = random.Random(4)
        for i in range(50):
            correct = rng.random() < 0.6
            examples.append(
                {"id": f"e{i:03d}", "input": f"question {i}?", "gold": "Paris", "context": "p"}
            )
            entries_pass1.append(answer_entry("Paris" if correct else "Lyon"))
            conf = round(rng.uniform(0.55, 0.95) if correct else rng.uniform(0.05, 0.5), 3)
            entries_pass1.append(yes_no_entry(conf, round(1 - conf, 3)))
            entries_pass2.append(answer_entry("Paris"))
            entries_pass2.append(yes_no_entry(0.8, 0.1))

        dataset = tmp_path / "d.jsonl"
        dataset.write_text("".join(json.dumps(e) + "\n" for e in examples))
        script = tmp_path / "m.jsonl"
        script.write_text(
            "".join(json.dumps(e) + "\n" for e in entries_pass1 + entries_pass2)
        )
        task = tmp_path / "t.json"
        task.write_text(
            json.dumps({"task_id": "det", "kind": "generation", "matcher": "substring"})
        )
        config = tmp_path / "run.conf"
        config.write_text(
            f"mock_script = {script}\ntask_spec = {task}\ndataset = {dataset}\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        return config, tmp_path / "out"

    def run_all(self, config, out):
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert main(["sweep", "--config", str(config), "--taus", "0.0,0.4,0.7,1.01"]) == EXIT_OK
        assert (
            main(
                [
                    "report",
                    str(out / "report.json"),
                    "--output",
                    str(out / "rerendered.csv"),
                ]
            )
            == EXIT_OK
        )
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_byte_identical_runs(self, tmp_path):
        config, out = self.build_run(tmp_path)
        start = time.perf_counter()
        first = self.run_all(config, out)
        second = self.run_all(config, out)
        elapsed = time.perf_counter() - start
        assert first == second
        assert {"records.jsonl", "report.json", "calibration_curve.csv", "sweep.csv"} <= set(first)
        assert elapsed < 10.0
        report("9 end-to-end determinism")
