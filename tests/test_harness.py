"""Tests for dataset loading, answer matching, and evaluation runs."""

import json
import math
import sys
import threading
import time
from dataclasses import replace

import pytest

from confcal.client import CompletionRequest, Message, MockBackend, ModelClient, about_to_wait
from confcal.errors import NoNumberFound, SchemaViolation
from confcal.metrics import build_report
from confcal.harness import (
    DatasetExample,
    TaskSpec,
    extract_last_number,
    load_dataset,
    match_answer,
    run_eval,
    run_pool,
    truncate_context,
    verify_records,
)

from conftest import MemoryCache, PureBackend, answer_entry, thread_starts, yes_no_entry


CLASSIFICATION_TASK = TaskSpec(
    task_id="toy-cls",
    kind="classification",
    matcher="exact",
    prompt_template="{input}",
    label_set={lab: frozenset({lab}) for lab in "ABCD"},
)

GENERATION_TASK = TaskSpec(
    task_id="toy-gen",
    kind="generation",
    matcher="substring",
    prompt_template="{input}",
)


class TestTaskSpec:
    def test_classification_needs_labels(self):
        with pytest.raises(SchemaViolation):
            TaskSpec(task_id="t", kind="classification", matcher="exact")

    def test_generation_rejects_exact(self):
        with pytest.raises(SchemaViolation):
            TaskSpec(task_id="t", kind="generation", matcher="exact")

    def test_from_json(self):
        spec = TaskSpec.from_json(
            {
                "task_id": "t",
                "kind": "classification",
                "matcher": "exact",
                "label_set": [{"label": "A", "aliases": ["A", " A"]}],
                "context_field": "passage",  # a retired key, ignored like any unknown one
            }
        )
        assert spec.label_set == {"A": {"A", " A"}}

    def test_alias_under_two_labels_is_refused(self):
        """Its probability would count for both labels: with A = {x} and
        B = {x, y}, a first token {x: -0.105, y: -2.3} read B at 0.526."""
        data = {
            "task_id": "t",
            "kind": "classification",
            "matcher": "exact",
            "label_set": [{"label": "A", "aliases": ["x"]}, {"label": "B", "aliases": ["x", "y"]}],
        }
        with pytest.raises(SchemaViolation, match="^alias 'x' is listed under two labels$"):
            TaskSpec.from_json(data)


class TestLoadDataset:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return path

    def test_valid_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"id": f"e{i}", "input": "q", "gold": "g"} for i in range(3)],
        )
        assert len(load_dataset(path, GENERATION_TASK)) == 3

    def test_missing_gold(self, tmp_path):
        path = self.write(tmp_path, [{"id": "e1", "input": "q"}])
        with pytest.raises(SchemaViolation, match="line 1"):
            load_dataset(path, GENERATION_TASK)

    @pytest.mark.parametrize(
        "line, message, matcher",
        [
            ({"id": "e1", "input": "q", "gold": ""}, "line 1: empty gold", "substring"),
            ({"id": "e1", "input": 5, "gold": "g"}, "line 1: input and context must be strings, choices a list of them", "substring"),
            ({"id": "e1", "input": "q", "gold": "g", "choices": ["a", 2]}, "line 1: input and context must be strings", "substring"),
            # a gold that normalizes to "" is in every prediction; under exact
            # it equals the empty prediction of an error record
            ({"id": "e1", "input": "q", "gold": "."}, "line 1: gold '.' is empty once normalized", "substring"),
            ({"id": "e1", "input": "q", "gold": " "}, "line 1: gold ' ' is empty once normalized", "substring"),
            ({"id": "e1", "input": "q", "gold": [""]}, "line 1: gold '' is empty once normalized", "substring"),
            ({"id": "e1", "input": "q", "gold": ["", "Paris"]}, "line 1: gold '' is empty once normalized", "substring"),
            ({"id": "e1", "input": "q", "gold": "!?"}, "line 1: gold '!\\?' is empty once normalized", "exact"),
            # a non-finite numeric gold matches no answer
            ({"id": "e1", "input": "q", "gold": "nan"}, "line 1: numeric gold 'nan' is not a number", "numeric"),
            ({"id": "e1", "input": "q", "gold": "inf"}, "line 1: numeric gold 'inf' is not a number", "numeric"),
            ({"id": "e1", "input": "q", "gold": ["2", "-Infinity"]}, "line 1: numeric gold '-Infinity' is not", "numeric"),
            # a matcher would compare the str() of it: [["Paris"]] is in "Paris"
            *(
                ({"id": "e1", "input": "q", "gold": gold}, f"line 1: gold {shown} is not a string or a number", matcher)
                for matcher in ("substring", "exact", "numeric")
                for gold, shown in (({"x": 1}, r"\{'x': 1\}"), (True, "True"), ([["Paris"]], r"\['Paris'\]"))
            ),
        ],
        ids=[
            "empty-gold", "number-input", "number-choice", "dot-gold", "space-gold", "empty-in-list",
            "empty-beside-paris", "exact-punctuation", "nan-gold", "inf-gold", "minus-inf-in-list",
            *(f"{kind}-gold-{matcher}" for matcher in ("substring", "exact", "numeric") for kind in ("dict", "bool", "nested-list")),
        ],
    )
    def test_bad_line(self, tmp_path, line, message, matcher):
        path = self.write(tmp_path, [line])
        task = CLASSIFICATION_TASK if matcher == "exact" else replace(GENERATION_TASK, matcher=matcher)
        with pytest.raises(SchemaViolation, match=message):
            load_dataset(path, task)

    def test_gold_with_punctuation_around_a_word_loads(self, tmp_path):
        path = self.write(tmp_path, [{"id": "e1", "input": "q", "gold": ["(Paris)", " 42 "]}])
        assert load_dataset(path, GENERATION_TASK)[0].gold == ["(Paris)", " 42 "]

    def test_duplicate_ids(self, tmp_path):
        path = self.write(
            tmp_path,
            [{"id": "e1", "input": "q", "gold": "g"}, {"id": "e1", "input": "q2", "gold": "g"}],
        )
        with pytest.raises(SchemaViolation, match="e1"):
            load_dataset(path, GENERATION_TASK)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.jsonl", GENERATION_TASK)

    def test_context_truncated(self, tmp_path):
        path = self.write(
            tmp_path, [{"id": "e1", "input": "q", "gold": "g", "context": "x" * 50000}]
        )
        examples = load_dataset(path, GENERATION_TASK)
        assert len(examples[0].context) == 8000  # 2000-token budget, tail cut


class TestMatchAnswer:
    def test_numeric_last_literal(self):
        assert match_answer("The answer is 42.", "42", "numeric")

    def test_numeric_picks_last_number(self):
        assert match_answer("First 7, then 12, so the result is 19", "19", "numeric")
        assert not match_answer("First 19, then the result is 7", "19", "numeric")

    def test_numeric_thousands_separators(self):
        assert match_answer("total: 1,234,567", "1234567", "numeric")

    def test_numeric_relative_tolerance(self):
        assert match_answer("0.30000000000000004", "0.3", "numeric")  # not == 0.3, within 1e-9
        assert not match_answer("0.3001", "0.3", "numeric")

    def test_numeric_no_number(self):
        with pytest.raises(NoNumberFound):
            match_answer("no digits here", "42", "numeric")

    def test_substring_reference(self):
        assert match_answer(
            "Sinclair Lewis won the Nobel Prize for Literature in 1930",
            ["Sinclair Lewis"],
            "substring",
        )

    def test_substring_normalization(self):
        assert match_answer("  SINCLAIR   lewis!  ", ["Sinclair Lewis"], "substring")

    def test_exact_label(self):
        assert match_answer("B", "B", "exact")
        assert match_answer(" b.", "B", "exact")
        assert not match_answer("A", "B", "exact")

    def test_gold_list_any(self):
        assert match_answer("paris", ["Lyon", "Paris"], "substring")

    def test_extract_last_number(self):
        assert extract_last_number("about -3.5 then 2,000") == 2000.0


class TestRunEvalClassification:
    def entries(self):
        # four scripted first-token distributions over labels A-D
        dists = [
            {"A": math.log(0.7), "B": math.log(0.1)},
            {"B": math.log(0.5), "A": math.log(0.5)},
            {"C": math.log(0.4), "D": math.log(0.4), "A": math.log(0.2)},
            {"D": math.log(0.9)},
        ]
        return [{"tokens": [max(d, key=d.get)], "distributions": [d]} for d in dists]

    def examples(self, golds):
        return [
            DatasetExample(id=f"e{i}", input=f"q{i}", gold=g) for i, g in enumerate(golds)
        ]

    def test_scripted_confidences(self):
        client = ModelClient(MockBackend(self.entries()))
        records = run_eval(
            CLASSIFICATION_TASK, self.examples(["A", "B", "C", "D"]), client
        ).records
        assert [r.prediction for r in records] == ["A", "A", "C", "D"]
        assert records[0].confidence == pytest.approx(0.7 / 0.8)
        assert records[1].confidence == pytest.approx(0.5)  # alphabetical tie-break
        assert records[2].confidence == pytest.approx(0.4)
        assert records[3].confidence == pytest.approx(1.0)
        assert [r.correct for r in records] == [True, False, True, True]

    def test_mode_both_pairs_ids(self):
        client = ModelClient(MockBackend(self.entries()))
        result = run_eval(CLASSIFICATION_TASK, self.examples(["A", "B", "C", "D"]), client)
        assert [r.id for r in result.records] == [r.id for r in result.raw_records]
        assert all(r.method == "raw" for r in result.raw_records)
        # raw confidence is the unnormalized chosen-label probability
        assert result.raw_records[0].confidence == pytest.approx(0.7)

    def test_empty_examples(self):
        client = ModelClient(MockBackend([]))
        assert run_eval(CLASSIFICATION_TASK, [], client).records == []


class TestRunPool:
    def test_first_failing_item_raises(self):
        def fn(x):
            if x in (3, 7):
                raise ValueError(x)
            return x

        with pytest.raises(ValueError, match="^3$"):
            run_pool(fn, list(range(20)), 4)

    def test_each_item_runs_once_under_contention(self):
        calls = []

        def fn(x):
            about_to_wait()
            calls.append(x)
            return -x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_pool(fn, list(range(2000)), 16)
        finally:
            sys.setswitchinterval(interval)
        assert results == [-x for x in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_cached_eval_starts_no_thread(self):
        examples = [DatasetExample(id=f"e{i}", input=f"q{i}?", gold="answer 1") for i in range(12)]
        cache = MemoryCache()
        cold = run_eval(GENERATION_TASK, examples, ModelClient(PureBackend(), cache=cache))
        backend = PureBackend()
        with thread_starts() as started:
            warm = run_eval(
                GENERATION_TASK, examples, ModelClient(backend, cache=cache), concurrency=8
            )
        assert started == [] and backend.calls == 0
        assert warm.records == cold.records

    def test_cold_eval_has_every_worker_in_flight(self):
        """Threads start at the first backend call, and then all ``concurrency``
        of them fetch at once: the first four calls wait for each other."""

        class GatedBackend(PureBackend):
            def __init__(self):
                super().__init__()
                self.gate = threading.Barrier(4, timeout=10)

            def complete(self, request):
                response = super().complete(request)
                if self.calls <= 4:
                    self.gate.wait()
                return response

        examples = [DatasetExample(id=f"e{i}", input=f"q{i}?", gold="answer 1") for i in range(12)]
        with thread_starts() as started:
            run_eval(GENERATION_TASK, examples, ModelClient(GatedBackend()), concurrency=4)
        assert len(started) == 3

    def test_interrupt_on_calling_thread_joins_helpers(self):
        client = ModelClient(PureBackend())
        calling = threading.current_thread()
        ran = []

        def fn(i):
            client.complete(CompletionRequest(messages=(Message("user", f"q{i}"),)))
            ran.append(i)
            if threading.current_thread() is calling:
                raise KeyboardInterrupt
            time.sleep(0.01)

        with thread_starts() as started:
            with pytest.raises(KeyboardInterrupt):
                run_pool(fn, list(range(200)), 4)
        assert len(started) == 3
        assert not any(thread.is_alive() for thread in started)
        assert len(ran) < 200


class TestRunEvalGeneration:
    def test_correct_answer_high_confidence(self):
        entries = [answer_entry("It is Paris of course"), yes_no_entry(0.8, 0.1)]
        client = ModelClient(MockBackend(entries))
        examples = [DatasetExample(id="e0", input="capital of France?", gold="Paris")]
        records = run_eval(GENERATION_TASK, examples, client).records
        assert records[0].correct
        assert records[0].confidence > 0.5
        assert records[0].method == "self_eval"

    def test_raw_confidence_is_p_yes(self):
        entries = [answer_entry("maybe Lyon"), yes_no_entry(0.3, 0.6)]
        client = ModelClient(MockBackend(entries))
        examples = [DatasetExample(id="e0", input="capital of France?", gold="Paris")]
        result = run_eval(GENERATION_TASK, examples, client)
        assert not result.records[0].correct
        assert result.records[0].confidence == pytest.approx(0.3 / 0.9)
        assert result.raw_records[0].confidence == pytest.approx(0.3)

    def test_anchor_fallback_flagged_not_dropped(self):
        entries = [answer_entry("some answer"), yes_no_entry(0.0, 0.0)]
        client = ModelClient(MockBackend(entries))
        examples = [DatasetExample(id="e0", input="q?", gold="zzz")]
        records = run_eval(GENERATION_TASK, examples, client).records
        assert len(records) == 1
        assert records[0].confidence == 0.5
        assert "fallback_neutral" in records[0].flags
        report = build_report(records, n_bins=1)
        assert report.flag_counts.get("fallback_neutral") == 1

    def test_no_number_flagged_incorrect(self):
        task = TaskSpec(task_id="math", kind="generation", matcher="numeric")
        entries = [answer_entry("I cannot say"), yes_no_entry(0.5, 0.3)]
        client = ModelClient(MockBackend(entries))
        examples = [DatasetExample(id="e0", input="2+2?", gold="4")]
        records = run_eval(task, examples, client).records
        assert not records[0].correct
        assert "no_number_found" in records[0].flags

    def test_error_record_is_wrong_without_matching(self):
        task = TaskSpec(task_id="math", kind="generation", matcher="numeric")
        client = ModelClient(MockBackend([]))  # exhausted: every call fails
        examples = [DatasetExample(id="e0", input="2+2?", gold="4")]
        records = run_eval(task, examples, client).records
        assert not records[0].correct
        assert records[0].confidence == 0.5
        assert records[0].flags == {"error:MalformedResponse"}
        assert "no_number_found" not in build_report(records).flag_counts

    def test_classification_error_record_has_no_anchor_flag(self):
        # no alias of any label in the top-K
        client = ModelClient(MockBackend([{"tokens": ["Z"], "distributions": [{"Z": -0.1}]}]))
        examples = [DatasetExample(id="e0", input="pick", gold="A")]
        records = run_eval(CLASSIFICATION_TASK, examples, client).records
        assert not records[0].correct and records[0].confidence == 0.5
        assert build_report(records).flag_counts == {"error:NoLabelTokenPresent": 1}

    def test_deterministic_across_runs(self):
        def run_once():
            entries = [answer_entry("Paris"), yes_no_entry(0.7, 0.2)]
            client = ModelClient(MockBackend(entries))
            examples = [DatasetExample(id="e0", input="q?", gold="Paris")]
            return run_eval(GENERATION_TASK, examples, client).records

        assert run_once() == run_once()

    def test_verify_records(self):
        entries = [answer_entry("Paris"), yes_no_entry(0.7, 0.2)]
        client = ModelClient(MockBackend(entries))
        examples = [DatasetExample(id="e0", input="q?", gold="Paris")]
        records = run_eval(GENERATION_TASK, examples, client).records
        assert verify_records(GENERATION_TASK, records)


class TestBuildReport:
    def test_separable_records(self):
        entries = []
        examples = []
        for i in range(6):
            correct = i < 3
            entries.append(answer_entry("Paris" if correct else "Lyon"))
            entries.append(yes_no_entry(0.9 if correct else 0.1, 0.1 if correct else 0.9))
            examples.append(DatasetExample(id=f"e{i}", input=f"q{i}?", gold="Paris"))
        client = ModelClient(MockBackend(entries))
        records = run_eval(GENERATION_TASK, examples, client).records
        report = build_report(records, n_bins=3)
        assert report.auroc == 1.0
        assert report.accuracy == pytest.approx(0.5)


def test_truncate_context_budget():
    assert truncate_context("abcd" * 2001) == "abcd" * 2000  # 2000 tokens of ~4 chars
