"""End-to-end CLI tests over the mock backend."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import confcal
from confcal import adaptive, harness
from confcal.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ENDPOINT,
    EXIT_OK,
    RunConfig,
    apply_env_overrides,
    build_client,
    load_config_file,
    main,
)
from confcal.client import MockBackend
from confcal.errors import ConfigInvalid

from conftest import answer_entry, yes_no_entry


def write_jsonl(path, items):
    path.write_text("".join(json.dumps(i) + "\n" for i in items))


def make_generation_run(tmp_path, n=4, with_context=False):
    """Dataset + mock script + task spec + config for a small generation eval."""
    examples = []
    entries = []
    for i in range(n):
        correct = i % 2 == 0
        item = {"id": f"e{i:03d}", "input": f"question {i}?", "gold": "Paris"}
        if with_context:
            item["context"] = f"passage {i}"
        examples.append(item)
        entries.append(answer_entry("Paris" if correct else "Lyon"))
        entries.append(yes_no_entry(0.6 + 0.08 * i if correct else 0.2 + 0.05 * i, 0.2))
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, examples)
    script = tmp_path / "mock.jsonl"
    write_jsonl(script, entries)
    task = tmp_path / "task.json"
    task.write_text(
        json.dumps({"task_id": "toy-gen", "kind": "generation", "matcher": "substring"})
    )
    config = tmp_path / "run.conf"
    config.write_text(
        "\n".join(
            [
                "# toy generation run",
                f"mock_script = {script}",
                f"task_spec = {task}",
                f"dataset = {dataset}",
                f"output_dir = {tmp_path / 'out'}",
                "n_bins = 2",
            ]
        )
        + "\n"
    )
    return config, tmp_path / "out"


class TestConfig:
    def test_flat_key_value_parsing(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("a = 1\n# comment\nb=two # trailing\n")
        assert load_config_file(path) == {"a": "1", "b": "two"}

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CONFCAL_N_BINS", "5")
        merged = apply_env_overrides({"n_bins": "10"})
        assert merged["n_bins"] == "5"

    def test_exactly_one_backend(self):
        with pytest.raises(ConfigInvalid):
            build_client(RunConfig.from_mapping({"mock_script": "a", "base_url": "http://x"}))
        with pytest.raises(ConfigInvalid):
            build_client(RunConfig.from_mapping({}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_mapping({"mock_script": "a", "bogus": "1"})


class TestImportCost:
    def test_cli_imports_no_numpy_scipy_or_requests(self):
        code = "import sys, confcal.cli; print([m for m in ('numpy', 'scipy', 'requests') if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(confcal.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestEval:
    def test_writes_three_outputs(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert (out / "records.jsonl").exists()
        assert (out / "report.json").exists()
        assert (out / "calibration_curve.csv").exists()

        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 4
        assert set(records[0]) == {
            "id", "task_id", "prediction", "gold", "correct", "confidence", "method", "flags",
        }
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == 4
        assert len(report["bins"]) == 2

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        config, _ = make_generation_run(tmp_path)
        config.write_text(
            "\n".join(l for l in config.read_text().splitlines() if not l.startswith("dataset"))
        )
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        assert "dataset" in capsys.readouterr().err

    def test_mode_both_reports_raw_auroc(self, tmp_path, monkeypatch):
        config, out = make_generation_run(tmp_path)
        monkeypatch.setenv("CONFCAL_CONFIDENCE_MODE", "both")
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "raw_auroc" in report
        assert "auroc" in report

    def test_no_backend_is_config_error_before_reading_data(self, tmp_path, capsys):
        config, _ = make_generation_run(tmp_path)
        config.write_text(
            "\n".join(l for l in config.read_text().splitlines() if not l.startswith("mock_script"))
        )
        (tmp_path / "data.jsonl").unlink()
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        assert "base_url" in capsys.readouterr().err

    def test_n_bins_below_one_is_config_error_before_any_call(self, tmp_path, monkeypatch, capsys):
        config, out = make_generation_run(tmp_path)
        monkeypatch.setenv("CONFCAL_N_BINS", "0")
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: n_bins must be >= 1, got 0\n"
        assert calls == [] and not out.exists()

    def test_bad_dataset_is_data_error(self, tmp_path):
        config, _ = make_generation_run(tmp_path)
        (tmp_path / "data.jsonl").write_text('{"id": "e1", "input": "q"}\n')
        assert main(["eval", "--config", str(config)]) == EXIT_DATA


    def test_non_numeric_gold_is_data_error(self, tmp_path, capsys):
        config, _ = make_generation_run(tmp_path)
        (tmp_path / "task.json").write_text(
            json.dumps({"task_id": "t", "kind": "generation", "matcher": "numeric"})
        )
        (tmp_path / "data.jsonl").write_text('{"id": "e1", "input": "q", "gold": "two"}\n')
        # an answer with a number, so that matching would reach the gold
        write_jsonl(tmp_path / "mock.jsonl", [answer_entry("2"), yes_no_entry(0.6, 0.2)])
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 1" in err and "'two'" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestPoolSize:
    @pytest.mark.parametrize("argv", [["eval"], ["sweep", "--taus", "0.0,0.5"]])
    def test_mock_backend_runs_one_thread(self, tmp_path, monkeypatch, argv):
        config, out = make_generation_run(tmp_path, with_context=True)
        monkeypatch.setenv("CONFCAL_CONCURRENCY", "8")
        sizes = []
        real = harness.run_pool

        def spy(fn, items, concurrency, client=None):
            sizes.append(concurrency)
            return real(fn, items, concurrency, client)

        monkeypatch.setattr(harness, "run_pool", spy)
        monkeypatch.setattr(adaptive, "run_pool", spy)
        assert main(argv + ["--config", str(config)]) == EXIT_OK
        assert sizes and set(sizes) == {1}


class TestSweep:
    def test_scripted_sweep_csv(self, tmp_path):
        # 2 of 4 wrong at conf 0.4, retrieval flips them at 0.9
        examples = [
            {"id": f"e{i}", "input": f"q{i}?", "gold": "Paris", "context": "passage"}
            for i in range(4)
        ]
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
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, examples)
        script = tmp_path / "m.jsonl"
        write_jsonl(script, entries)
        task = tmp_path / "t.json"
        task.write_text(
            json.dumps({"task_id": "tq", "kind": "generation", "matcher": "substring"})
        )
        config = tmp_path / "run.conf"
        config.write_text(
            f"mock_script = {script}\ntask_spec = {task}\ndataset = {dataset}\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["sweep", "--config", str(config), "--taus", "0.0,0.5,1.01"]) == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,retrieval_pct,accuracy_pct,gain_pp,efficiency"
        row_05 = lines[2].split(",")
        assert float(row_05[1]) == pytest.approx(50.0)
        assert float(row_05[3]) == pytest.approx(50.0)
        assert float(row_05[4]) == pytest.approx(1.0)
        # tau=0 row: no retrieval, efficiency undefined (empty)
        assert lines[1].split(",")[4] == ""

    def test_empty_taus_is_config_error(self, tmp_path):
        config, _ = make_generation_run(tmp_path)
        assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("taus, code", [("x", EXIT_CONFIG), ("0.5,", EXIT_OK)])
    def test_taus_flag_parses_like_the_config_key(self, tmp_path, capsys, taus, code):
        config, out = make_generation_run(tmp_path, with_context=True)
        assert main(["sweep", "--config", str(config), "--taus", taus]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.startswith("config error: bad value for 'taus'") and len(err.splitlines()) == 1
            assert not out.exists()
        else:
            assert (out / "sweep.csv").read_text().splitlines()[1].startswith("0.500000,")


class TestEceFromBins:
    def test_known_aggregates(self, tmp_path, capsys):
        from conftest import DATA_DIR

        src = DATA_DIR / "bins_gsm8k_baseline.csv"
        assert main(["ece-from-bins", str(src)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ece = 0.068" in out
        assert "weighted_accuracy = 0.924" in out

    def test_zero_gap_rows(self, tmp_path, capsys):
        path = tmp_path / "bins.csv"
        path.write_text("count,mean_accuracy,mean_confidence\n10,0.8,0.8\n5,0.3,0.3\n")
        assert main(["ece-from-bins", str(path)]) == EXIT_OK
        assert "ece = 0.000000" in capsys.readouterr().out

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "bins.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["ece-from-bins", str(path)]) == EXIT_DATA


class TestSandbox:
    def run_sandbox(self, tmp_path, extra=""):
        config = tmp_path / "sb.conf"
        config.write_text(f"output_dir = {tmp_path / 'out'}\nsteps = 300\n{extra}")
        return main(["sandbox", "--config", str(config)]), tmp_path / "out"

    def test_outputs_and_summary(self, tmp_path):
        code, out = self.run_sandbox(tmp_path)
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ce_final_kl"] < summary["dpo_final_kl"]
        assert summary["ce_final_kl"] < summary["advantage_final_kl"]
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "step,method,kl,max_prob,ece_proxy"

    def test_fixed_seed_identical_files(self, tmp_path):
        _, out = self.run_sandbox(tmp_path)
        first = (out / "trace.csv").read_bytes(), (out / "summary.json").read_bytes()
        _, out = self.run_sandbox(tmp_path)
        second = (out / "trace.csv").read_bytes(), (out / "summary.json").read_bytes()
        assert first == second

    @pytest.mark.parametrize(
        "backend", ["", "mock_script = m.jsonl\nbase_url = http://127.0.0.1:9\n"]
    )
    def test_backend_not_checked(self, tmp_path, backend):
        code, out = self.run_sandbox(tmp_path, extra=backend)
        assert code == EXIT_OK
        assert (out / "summary.json").exists()

    def test_single_option_is_config_error(self, tmp_path):
        code, _ = self.run_sandbox(tmp_path, extra="data_distribution = 1.0\n")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("setting", ["batch_size = 0", "steps = 0", "lr = -1"])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, setting):
        code, out = self.run_sandbox(tmp_path, extra=setting + "\n")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert not (out / "summary.json").exists()


class TestReport:
    def test_rerender_to_csv(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        target = tmp_path / "curve.csv"
        assert main(["report", str(out / "report.json"), "--output", str(target)]) == EXIT_OK
        assert target.read_bytes() == (out / "calibration_curve.csv").read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == EXIT_DATA


class TestIdempotence:
    def test_eval_byte_identical_across_runs(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def run_quietly(argv):
    """main(argv) with stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def write_all_inputs(root):
    """A working eval run plus its report; returns {name: path}, argv by name."""
    config, out = make_generation_run(root)
    assert main(["eval", "--config", str(config)]) == EXIT_OK
    files = {
        "config": config,
        "task": root / "task.json",
        "dataset": root / "data.jsonl",
        "mock": root / "mock.jsonl",
        "report": out / "report.json",
    }
    eval_argv = ["eval", "--config", str(config)]
    argvs = {name: eval_argv for name in files}
    argvs["report"] = ["report", str(files["report"]), "--output", str(root / "curve.csv")]
    return files, argvs


class TestMalformedInput:
    """A malformed input file ends in one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "name, content, code",
        [
            ("task", b'{"task_id": "t", "kind": "gen', EXIT_DATA),
            ("task", b'{"task_id": "t", "kind": "generation"}', EXIT_DATA),
            ("task", b'{"task_id": "t", "kind": "generation", "matcher": "substring", '
                     b'"prompt_template": "{question}"}', EXIT_DATA),
            ("mock", b'{"tokens": ["Paris"], "distributions": [{"Par\n', EXIT_DATA),
            ("report", b'{"bins": 3}', EXIT_DATA),
            ("report", b"not json", EXIT_DATA),
            ("dataset", b"1\n", EXIT_DATA),
            ("config", b"n_bins = \xff\n", EXIT_CONFIG),
        ],
    )
    def test_named_cases(self, tmp_path, name, content, code):
        files, argvs = write_all_inputs(tmp_path)
        files[name].write_bytes(content)
        got, err = run_quietly(argvs[name])
        assert got == code
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        if name != "config":
            assert str(files[name]) in err

    def test_unreadable_path_is_data_error(self, tmp_path):
        files, argvs = write_all_inputs(tmp_path)
        files["dataset"].unlink()
        files["dataset"].mkdir()
        code, err = run_quietly(argvs["dataset"])
        assert code == EXIT_DATA
        assert len(err.splitlines()) == 1 and str(files["dataset"]) in err

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["config", "task", "dataset", "mock", "report"]),
        edit=st.sampled_from(["truncate", "replace", "insert", "delete"]),
        at=st.integers(min_value=0, max_value=1 << 16),
        byte=st.sampled_from(b'{}[]":, \n0-aex\xff'),
    )
    def test_garbled_file(self, name, edit, at, byte):
        with tempfile.TemporaryDirectory() as tmp:
            files, argvs = write_all_inputs(Path(tmp))
            data = files[name].read_bytes()
            i = at % (len(data) + 1)
            garbled = {
                "truncate": data[:i],
                "replace": data[:i] + bytes([byte]) + data[i + 1:],
                "insert": data[:i] + bytes([byte]) + data[i:],
                "delete": data[:i] + data[i + 1:],
            }[edit]
            files[name].write_bytes(garbled)
            code, err = run_quietly(argvs[name])
        if code == EXIT_OK:
            assert err == ""
        else:
            assert code in (EXIT_CONFIG, EXIT_ENDPOINT, EXIT_DATA)
            assert len(err.splitlines()) == 1, err
