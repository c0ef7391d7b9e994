"""End-to-end CLI tests over the mock backend and the benchmark's loopback stub."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

ROOT = Path(__file__).resolve().parents[1]

import confcal
from confcal import adaptive, cli, harness, metrics
from confcal.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ENDPOINT,
    EXIT_OK,
    KEYS,
    RunConfig,
    apply_env_overrides,
    build_client,
    build_parser,
    load_config_file,
    main,
)
from confcal.client import MockBackend, ModelClient
from confcal.errors import ConfigInvalid, InvalidInput

from conftest import LoopbackServer, answer_entry, closes_everything, yes_no_entry


def write_jsonl(path, items):
    path.write_text("".join(json.dumps(i) + "\n" for i in items))


def make_generation_run(tmp_path, n=4, with_context=False, command="eval"):
    """Dataset + mock script + task spec + config for a small generation run
    of ``command``; an eval's config also sets n_bins, which a sweep does not read."""
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
                *(["n_bins = 2"] if command == "eval" else []),
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

    @pytest.mark.parametrize("argv", [["eval"], ["sweep", "--taus", "0.5"]])
    def test_endpoint_error_comes_before_any_file_is_read(self, tmp_path, capsys, argv):
        """A bad port is an endpoint error (exit 2) although the task spec and
        the dataset do not exist: they would be a data error (exit 3)."""
        config = tmp_path / "run.conf"
        config.write_text(
            "base_url = http://127.0.0.1:abc/v1\n"
            f"task_spec = {tmp_path / 'missing.json'}\n"
            f"dataset = {tmp_path / 'missing.jsonl'}\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main([argv[0], "--config", str(config), *argv[1:]]) == EXIT_ENDPOINT
        err = capsys.readouterr().err
        assert err.startswith("endpoint error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            "eval --seed 1",
            "sweep --seed 1",
            "sandbox --dataset d.jsonl",
            "sandbox --task-spec t.json",
            "sandbox --mock-script m.jsonl",
            "sandbox --cache-path c.jsonl",
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, argv):
        code, err = run_quietly(argv.split())
        assert code == EXIT_CONFIG
        assert err == f"config error: unrecognized arguments: {argv.split(' ', 1)[1]}\n"

    @pytest.mark.parametrize(
        "argv, names",
        [
            ("eval --bogus 1", "--bogus"),
            ("sandbox --seed x", "'seed'"),
            ("sweep --config", "--config"),
            ("", "command"),
            ("nope", "'nope'"),
        ],
    )
    def test_usage_error_is_one_config_error(self, argv, names):
        code, err = run_quietly(argv.split())
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and len(err.splitlines()) == 1 and names in err

    @pytest.mark.parametrize("argv", ["--help", "eval --help", "ece-from-bins --help"])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 0
        assert "usage: confcal" in capsys.readouterr().out


class TestImportCost:
    def test_cli_imports_no_numpy_scipy_or_requests(self):
        code = "import sys, confcal.cli; print([m for m in ('numpy', 'scipy', 'requests', 'urllib3') if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(confcal.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_commands_that_reach_no_endpoint_load_no_http_stack(self, tmp_path):
        """``sandbox`` and a mock-backed ``eval`` leave the transport
        unloaded. An ``http://`` backend with no proxy in the environment
        loads it, but no ``http.client``, ``email``, ``urllib.request``,
        ``ssl``, ``logging`` or ``concurrent.futures``; an ``https://``
        backend loads ``ssl``, and a set HTTP_PROXY ``urllib.request``."""
        (tmp_path / "eval").mkdir()
        eval_config, _ = make_generation_run(tmp_path / "eval")
        sandbox_config = tmp_path / "sb.conf"
        sandbox_config.write_text(f"output_dir = {tmp_path / 'sb'}\nsteps = 10\n")
        code = textwrap.dedent("""
            import json, os, sys
            from confcal.cli import main
            from confcal.client import HTTPBackend
            stack = ("confcal.transport", "http.client", "email.parser", "urllib.request", "ssl", "logging",
                     "concurrent.futures")
            loaded = []
            codes = [main(["sandbox", "--config", sys.argv[1]]), main(["eval", "--config", sys.argv[2]])]
            for url, proxy in [("http", None), ("https", None), ("http", "http://127.0.0.1:9")]:
                loaded.append([m for m in stack if m in sys.modules])
                if proxy:
                    os.environ["HTTP_PROXY"] = proxy
                HTTPBackend(f"{url}://127.0.0.1:9/v1").close()
            loaded.append([m for m in stack if m in sys.modules])
            print(json.dumps([codes, loaded]))
        """)
        env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
        env["PYTHONPATH"] = str(Path(confcal.__file__).parents[1])
        argv = [sys.executable, "-c", code, str(sandbox_config), str(eval_config)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        codes, loaded = json.loads(done.stdout.splitlines()[-1])  # after the commands' own output
        assert codes == [EXIT_OK, EXIT_OK]
        # macOS and Windows read their system proxy settings through urllib.request
        system = ["urllib.request"] if sys.platform in ("darwin", "win32") else []
        assert loaded[:2] == [[], ["confcal.transport"] + system]
        assert "ssl" in loaded[2] and "urllib.request" in loaded[3]

    def test_only_ece_from_bins_loads_csv(self, tmp_path):
        """The CSVs confcal writes are joined text: ``sandbox``, a mock
        ``eval`` and ``sweep`` and ``report`` leave the csv module unloaded;
        ``ece-from-bins``, which reads a CSV, loads it."""
        for command in ("eval", "sweep"):
            (tmp_path / command).mkdir()
        eval_config, eval_out = make_generation_run(tmp_path / "eval")
        sweep_config, _ = make_generation_run(tmp_path / "sweep", command="sweep")
        (tmp_path / "sb.conf").write_text(f"output_dir = {tmp_path / 'sb'}\nsteps = 10\n")
        (tmp_path / "bins.csv").write_text("count,mean_accuracy,mean_confidence\n10,0.8,0.7\n")
        code = textwrap.dedent("""
            import json, sys
            from confcal.cli import main
            sb, ev, sw, report, bins = sys.argv[1:]
            codes = [
                main(["sandbox", "--config", sb]),
                main(["eval", "--config", ev]),
                main(["sweep", "--config", sw, "--taus", "0.0"]),
                main(["report", report]),
            ]
            loaded = ["csv" in sys.modules]
            codes.append(main(["ece-from-bins", bins]))
            print(json.dumps([codes, loaded + ["csv" in sys.modules]]))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(confcal.__file__).parents[1])}
        files = [tmp_path / "sb.conf", eval_config, sweep_config, eval_out / "report.json", tmp_path / "bins.csv"]
        done = subprocess.run([sys.executable, "-c", code, *map(str, files)], env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [[EXIT_OK] * 5, [False, True]]

    def test_an_http_backend_loads_no_certifi(self):
        """Only an https:// endpoint whose CA bundle the environment does not
        name (REQUESTS_CA_BUNDLE, else CURL_CA_BUNDLE) reads certifi's.
        ``-S`` keeps a site hook from loading certifi first; certifi's own
        directory is on the path, so that the last backend can load it."""
        import certifi

        code = textwrap.dedent("""
            import os, sys
            from confcal.client import HTTPBackend
            HTTPBackend("http://127.0.0.1:9/v1").close()
            loaded = ["certifi" in sys.modules]
            for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
                os.environ[name] = sys.argv[1]
                HTTPBackend("https://127.0.0.1:9/v1").close()
                del os.environ[name]
                loaded.append("certifi" in sys.modules)
            HTTPBackend("https://127.0.0.1:9/v1").close()
            print(loaded + ["certifi" in sys.modules])
        """)
        path = os.pathsep.join([str(Path(confcal.__file__).parents[1]), str(Path(certifi.__file__).parents[1])])
        env = {name: value for name, value in os.environ.items() if name not in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE")}
        env["PYTHONPATH"] = path
        argv = [sys.executable, "-S", "-c", code, certifi.where()]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[False, False, False, True]"


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

    @pytest.mark.parametrize(
        "mode, method, confidences",
        [
            # P(Yes), and P(Yes) / (P(Yes) + P(No)), as scripted by make_generation_run
            ("raw", "raw", [0.6, 0.25, 0.76, 0.35]),
            ("normalized", "self_eval", [0.6 / 0.8, 0.25 / 0.45, 0.76 / 0.96, 0.35 / 0.55]),
        ],
    )
    def test_single_mode_writes_its_records_and_no_raw_auroc(
        self, tmp_path, monkeypatch, mode, method, confidences
    ):
        config, out = make_generation_run(tmp_path)
        monkeypatch.setenv("CONFCAL_CONFIDENCE_MODE", mode)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert [r["method"] for r in records] == [method] * 4
        assert [r["confidence"] for r in records] == pytest.approx(confidences, abs=1e-6)
        assert "raw_auroc" not in json.loads((out / "report.json").read_text())

    def test_mode_both_writes_undefined_raw_auroc_as_null(self, tmp_path, monkeypatch):
        config, out = make_generation_run(tmp_path)
        write_jsonl(tmp_path / "mock.jsonl", [answer_entry("Paris"), yes_no_entry(0.6, 0.2)] * 4)
        monkeypatch.setenv("CONFCAL_CONFIDENCE_MODE", "both")
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["auroc"] is None and report["raw_auroc"] is None

    @pytest.mark.parametrize(
        "label_set",
        [
            [{"label": "Yes", "aliases": "Yes"}],
            [{"label": "A", "aliases": [1, 2]}],
            [{"label": "A", "aliases": ["A"]}, {"label": "A", "aliases": ["a"]}],
            [{"label": "A", "aliases": ["A"]}, {"label": "B", "aliases": []}],
            [{"label": "A", "aliases": ["x"]}, {"label": "B", "aliases": ["x", "y"]}],
        ],
        ids=["aliases-a-string", "aliases-not-strings", "repeated-label", "aliases-empty", "alias-shared"],
    )
    def test_bad_label_set_is_one_data_error(self, tmp_path, capsys, monkeypatch, label_set):
        config, out = make_generation_run(tmp_path)
        (tmp_path / "task.json").write_text(
            json.dumps({"task_id": "c", "kind": "classification", "matcher": "exact", "label_set": label_set})
        )
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "not a task spec" in err and len(err.splitlines()) == 1
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize(
        "policy, flags",
        [
            (None, ["anchor_missing_no", "anchor_missing_yes", "fallback_neutral"]),
            ("error", ["error:AnchorTokensAbsent"]),
        ],
        ids=["default", "error"],
    )
    def test_anchorless_self_eval_record_flags(self, tmp_path, policy, flags):
        config, out = make_generation_run(tmp_path, n=1)
        write_jsonl(tmp_path / "mock.jsonl", [answer_entry("Paris"), yes_no_entry(0.0, 0.0)])
        if policy:
            config.write_text(config.read_text() + f"missing_policy = {policy}\n")
        assert run_quietly(["eval", "--config", str(config)]) == (EXIT_OK, "")
        (record,) = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert record["flags"] == flags

    def test_skip_policy_is_config_error(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        config.write_text(config.read_text() + "missing_policy = skip\n")
        code, err = run_quietly(["eval", "--config", str(config)])
        assert (code, err) == (EXIT_CONFIG, "config error: missing_policy must be error|neutral, got 'skip'\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_concurrency_below_one_is_config_error_before_any_call(self, tmp_path, monkeypatch, capsys, value):
        config, out = make_generation_run(tmp_path)
        monkeypatch.setenv("CONFCAL_CONCURRENCY", value)
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: concurrency must be >= 1, got {value}\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("template", ["Context: {context}\nQ: {input}", "{input}\n{choices}"])
    def test_generation_template_names_only_input(self, tmp_path, monkeypatch, capsys, template):
        config, out = make_generation_run(tmp_path, with_context=True)
        spec = {"task_id": "toy-gen", "kind": "generation", "matcher": "substring", "prompt_template": template}
        (tmp_path / "task.json").write_text(json.dumps(spec))
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        assert main(["eval", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "prompt_template" in err and len(err.splitlines()) == 1
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
        config, out = make_generation_run(tmp_path, with_context=True, command=argv[0])
        monkeypatch.setenv("CONFCAL_CONCURRENCY", "8")
        sizes = []
        real = harness.run_pool

        def spy(fn, items, concurrency):
            sizes.append(concurrency)
            return real(fn, items, concurrency)

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

    def test_empty_taus_is_config_error(self, tmp_path, capsys):
        config, _ = make_generation_run(tmp_path, command="sweep")
        assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: missing tau list") and "taus" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("taus, code", [("x", EXIT_CONFIG), ("0.5,", EXIT_OK)])
    def test_taus_flag_parses_like_the_config_key(self, tmp_path, capsys, taus, code):
        config, out = make_generation_run(tmp_path, with_context=True, command="sweep")
        assert main(["sweep", "--config", str(config), "--taus", taus]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err.startswith("config error: bad value for 'taus'") and len(err.splitlines()) == 1
            assert not out.exists()
        else:
            assert (out / "sweep.csv").read_text().splitlines()[1].startswith("0.500000,")

    @pytest.mark.parametrize("taus", ["nan,0.9", "0.9,nan"])
    def test_nan_tau_is_config_error(self, tmp_path, capsys, taus):
        config, out = make_generation_run(tmp_path, with_context=True, command="sweep")
        assert main(["sweep", "--config", str(config), "--taus", taus]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for 'taus'") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_classification_task_is_config_error_before_any_call(self, tmp_path, capsys, monkeypatch):
        config, out = make_generation_run(tmp_path, with_context=True, command="sweep")
        (tmp_path / "task.json").write_text(
            json.dumps(
                {"task_id": "c", "kind": "classification", "matcher": "exact",
                 "label_set": [{"label": "A", "aliases": ["A"]}, {"label": "B", "aliases": ["B"]}]}
            )
        )
        calls, closed = [], []
        monkeypatch.setattr(ModelClient, "complete", lambda self, request: calls.append(request))
        monkeypatch.setattr(ModelClient, "close", lambda self: closed.append(self))
        assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep needs a generation task") and len(err.splitlines()) == 1
        assert calls == [] and len(closed) == 1
        assert not (out / "sweep.csv").exists()


class TestNoOutputDirOnEarlyError:
    """A run that fails before its first write leaves no output directory."""

    @pytest.mark.parametrize("argv", [["eval"], ["sweep", "--taus", "0.5"]])
    @pytest.mark.parametrize("content", [b"", b"\n  \n"], ids=["empty", "blank-lines"])
    def test_empty_dataset_is_one_data_error_before_any_call(self, tmp_path, capsys, monkeypatch, argv, content):
        config, out = make_generation_run(tmp_path, with_context=True, command=argv[0])
        (tmp_path / "data.jsonl").write_bytes(content)
        calls = []
        monkeypatch.setattr(MockBackend, "complete", lambda self, request: calls.append(request))
        assert main(argv + ["--config", str(config)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {tmp_path / 'data.jsonl'}: no examples\n"
        assert calls == [] and not out.exists()

    def test_classification_sweep(self, tmp_path, capsys):
        config, out = make_generation_run(tmp_path, with_context=True, command="sweep")
        (tmp_path / "task.json").write_text(
            json.dumps({"task_id": "c", "kind": "classification", "matcher": "exact",
                        "label_set": [{"label": "A", "aliases": ["A"]}]})
        )
        assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_CONFIG
        assert not out.exists()


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

    def test_header_without_rows(self, tmp_path, capsys):
        path = tmp_path / "bins.csv"
        path.write_text("count,mean_accuracy,mean_confidence\n")
        assert main(["ece-from-bins", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {path}: no bin rows\n"

    def test_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bins.csv"
        header = b"count,mean_accuracy,mean_confidence\n"
        for data in (
            b"a,b\n1,2\n",
            header + b"10,nan,0.5\n",
            header + b"10,0.1,inf\n",
            header + b"-10,0.1,0.9\n20,0.5,0.6\n",
            header + b"10,1.5,0.5\n",
            header + b"10\n",
            header + b"10,0.5,0.5\xff\n",
        ):
            path.write_bytes(data)
            assert main(["ece-from-bins", str(path)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1, err


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
    def test_backend_not_checked(self, tmp_path, capsys, backend):
        """The sandbox needs no backend, and a backend key is one it does not read."""
        code, out = self.run_sandbox(tmp_path, extra=backend)
        if not backend:
            assert code == EXIT_OK and (out / "summary.json").exists()
        else:
            assert code == EXIT_CONFIG and not out.exists()
            assert capsys.readouterr().err == "config error: sandbox does not read config key 'mock_script'\n"

    def test_single_option_is_config_error(self, tmp_path):
        code, _ = self.run_sandbox(tmp_path, extra="data_distribution = 1.0\n")
        assert code == EXIT_CONFIG

    def test_nan_in_data_distribution_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONFCAL_DATA_DISTRIBUTION", "nan,1")
        code, out = self.run_sandbox(tmp_path)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: bad value for 'data_distribution'") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        ["batch_size = 0", "steps = 0", "lr = -1", "lr = nan", "lr = inf"],
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, setting):
        code, out = self.run_sandbox(tmp_path, extra=setting + "\n")
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert setting.split(" = ")[0] in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("source", ["file", "env", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, source):
        config = tmp_path / "sb.conf"
        out = tmp_path / "out"
        config.write_text(f"output_dir = {out}\nsteps = 5\n" + ("seed = -1\n" if source == "file" else ""))
        if source == "env":
            monkeypatch.setenv("CONFCAL_SEED", "-1")
        argv = ["sandbox", "--config", str(config)] + (["--seed", "-1"] if source == "flag" else [])
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestReport:
    def test_rerender_to_csv(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        target = tmp_path / "curve.csv"
        assert main(["report", str(out / "report.json"), "--output", str(target)]) == EXIT_OK
        assert target.read_bytes() == (out / "calibration_curve.csv").read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_missing_output_directory_is_created(self, tmp_path, capsys):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        target = tmp_path / "plots" / "new" / "curve.csv"
        capsys.readouterr()
        assert main(["report", str(out / "report.json"), "--output", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {target}\n"
        assert target.read_bytes() == (out / "calibration_curve.csv").read_bytes()


class TestIdempotence:
    def test_eval_byte_identical_across_runs(self, tmp_path):
        config, out = make_generation_run(tmp_path)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def floats_in(data):
    if isinstance(data, float):
        yield data
    elif isinstance(data, (dict, list)):
        for value in data.values() if isinstance(data, dict) else data:
            yield from floats_in(value)


class TestArtifactRounding:
    """JSON floats are rounded to 6 decimals; a record's gold is written as read."""

    def test_numeric_gold_is_written_as_read(self, tmp_path):
        golds, answers = [1234.5678901, 0.1234567891, 2.5], ["1234.5678901", "0.1234567891", "3"]
        write_jsonl(tmp_path / "data.jsonl", [{"id": f"e{i}", "input": f"q{i}?", "gold": g} for i, g in enumerate(golds)])
        write_jsonl(
            tmp_path / "mock.jsonl",
            [entry for i, a in enumerate(answers) for entry in (answer_entry(a), yes_no_entry(0.3 + 0.2 * i, 0.1))],
        )
        task_json = {"task_id": "t", "kind": "generation", "matcher": "numeric"}
        (tmp_path / "task.json").write_text(json.dumps(task_json))
        out = tmp_path / "out"
        config = tmp_path / "run.conf"
        config.write_text(
            f"mock_script = {tmp_path / 'mock.jsonl'}\ntask_spec = {tmp_path / 'task.json'}\n"
            f"dataset = {tmp_path / 'data.jsonl'}\noutput_dir = {out}\n"
        )
        assert run_quietly(["eval", "--config", str(config)])[0] == EXIT_OK

        text = (out / "records.jsonl").read_text(encoding="utf-8")
        assert "1234.5678901" in text and "0.1234567891" in text
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["gold"] for r in rows] == golds
        assert [r["correct"] for r in rows] == [True, True, False]
        records = [metrics.EvalRecord(**{**r, "flags": frozenset(r["flags"])}) for r in rows]
        assert harness.verify_records(harness.TaskSpec.from_json(task_json), records)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        values = [r["confidence"] for r in rows] + list(floats_in(report))
        assert values and all(round(v, 6) == v for v in values)
        assert any(round(v, 2) != v for v in floats_in(report["bins"]))

    def test_summary_floats_are_rounded(self, tmp_path):
        config = tmp_path / "sb.conf"
        config.write_text(f"output_dir = {tmp_path / 'out'}\nsteps = 50\n")
        assert run_quietly(["sandbox", "--config", str(config)])[0] == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        values = list(floats_in(summary))
        assert values and all(round(v, 6) == v for v in values)
        assert any(round(v, 4) != v for v in values)


def csv_writer_text(header, rows):
    """What the standard library's ``csv.writer`` writes, the oracle of ``cli._csv``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


# a cell as confcal renders it: an int, a %.6f number, undefined (None) or a method name
CELLS = st.one_of(
    st.integers(),
    st.floats(),
    st.none(),
    st.sampled_from(["ce", "advantage", "dpo", "tau", "retrieval_pct"]),
)


def rendered(cell):
    return str(cell) if isinstance(cell, int) else cell if isinstance(cell, str) else cli._fmt(cell)


class TestCsv:
    """``cli._csv`` writes the bytes of ``csv.writer``'s default dialect for
    the cells confcal writes, none of which needs quoting, and refuses a cell
    that would. (csv.writer also quotes a lone empty cell, which only a
    one-column CSV could hold; confcal writes none, so rows have 2+ cells.)"""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda width: st.tuples(
        st.lists(st.sampled_from(["bin", "count", "step", "method", "kl", "tau"]), min_size=width, max_size=width),
        st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=20),
    )))
    def test_bytes_are_csv_writers(self, table):
        header, rows = table
        # csv.writer gets ints and None as they are: str(int) and "" are its own renderings
        raw = [[cli._fmt(cell) if isinstance(cell, float) else cell for cell in row] for row in rows]
        assert cli._csv(header, [[rendered(cell) for cell in row] for row in rows]) == csv_writer_text(header, raw)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.none() | st.floats()), min_size=1, max_size=6,
                 unique_by=lambda cut: cut[0]),
        st.lists(st.tuples(st.floats(-1, 2), st.integers(0, 5)), min_size=1, max_size=40),
    )
    def test_sweep_rows_render_as_cell_by_cell(self, cuts, picks):
        """Rows that repeat cut points, carry a None efficiency, or hold unsorted
        and repeated taus render as each row's cells through csv.writer did.
        Cut points differ in retrieval rate, as ``adaptive.sweep``'s do, so no
        two of them compare equal (0.0 == -0.0) while rendering apart."""
        rows = [adaptive.SweepRow(tau, *cuts[pick % len(cuts)]) for tau, pick in picks]
        header = ["tau", "retrieval_pct", "accuracy_pct", "gain_pp", "efficiency"]
        assert cli._sweep_csv(rows) == csv_writer_text(header, [[cli._fmt(v) for v in row] for row in rows])

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\r\n"])
    def test_cell_needing_quotes_is_refused(self, char):
        with pytest.raises(InvalidInput):
            cli._csv(["step", "method"], [["1", "ce"], ["2", f"c{char}e"]])
        with pytest.raises(InvalidInput):
            cli._csv(["step", f"met{char}hod"], [])

    def test_row_without_one_cell_per_column_is_refused(self):
        with pytest.raises(InvalidInput):
            cli._csv(["step", "method"], [["1", "ce", "x"]])

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    def test_refused_cell_is_one_data_error_and_no_file(self, tmp_path, monkeypatch, char):
        from confcal import sandbox

        run = sandbox.run_paradigm_comparison

        def renamed(task, cfg):
            traces, summary = run(task, cfg)
            traces[f"c{char}e"] = traces.pop("ce")
            return traces, summary

        monkeypatch.setattr(sandbox, "run_paradigm_comparison", renamed)
        config = tmp_path / "sb.conf"
        config.write_text(f"output_dir = {tmp_path / 'out'}\nsteps = 10\n")
        code, err = run_quietly(["sandbox", "--config", str(config)])
        assert code == EXIT_DATA
        assert err.startswith("data error: CSV cell with a comma") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BenchStub(LoopbackServer):
    """The benchmark's chat-completions stub, served on a thread."""

    def __init__(self):
        stub = _bench_module("stub")
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), stub.make_handler(stub._Counts()))
        self._server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1"


@closes_everything
class TestPinnedBytes:
    """The eval and sweep workloads of the benchmark at its seed write the
    bytes whose sha256 digests ``bench/expected.json`` holds."""

    @pytest.fixture(autouse=True)
    def no_proxy(self, plain_env, monkeypatch):
        monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
        monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")

    def check(self, workload, out):
        expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
        for name, digest in expected["digests"][workload].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_eval_http(self, tmp_path):
        with BenchStub() as stub:
            config = _bench_module("gen").eval_inputs(tmp_path, 0, 150, stub.url, 2)
            argv = ["eval", "--config", str(config), "--output-dir", str(tmp_path / "out")]
            code, err = run_quietly(argv + ["--cache-path", str(tmp_path / "cache.jsonl")])
        assert (code, err) == (EXIT_OK, "")
        self.check("eval-http", tmp_path / "out")

    def test_sweep_http(self, tmp_path):
        gen = _bench_module("gen")
        with BenchStub() as stub:
            config = gen.sweep_config(tmp_path, "sweep", stub.url, gen.sweep_inputs(tmp_path, 0, 100, 1001))
            argv = ["sweep", "--config", str(config), "--output-dir", str(tmp_path / "out")]
            code, err = run_quietly(argv + ["--cache-path", str(tmp_path / "cache.jsonl")])
        assert (code, err) == (EXIT_OK, "")
        self.check("sweep-http", tmp_path / "out")


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


BOM = b"\xef\xbb\xbf"


def _bom_sandbox(root, bom):
    (root / "sb.conf").write_bytes(bom + f"steps = 10\noutput_dir = {root / 'out'}\n".encode())
    code = run_quietly(["sandbox", "--config", str(root / "sb.conf")])
    return code, (root / "out" / "trace.csv").read_bytes(), (root / "out" / "summary.json").read_bytes()


def _bom_bins(root, bom):
    (root / "bins.csv").write_bytes(bom + b"count,mean_accuracy,mean_confidence\n10,0.8,0.7\n30,0.5,0.6\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ece-from-bins", str(root / "bins.csv")])
    return code, out.getvalue()


def _bom_task_spec(root, bom):
    labels = [{"label": "A", "aliases": ["A", " A"]}, {"label": "B", "aliases": ["B"]}]
    spec = {"task_id": "t", "kind": "classification", "matcher": "exact", "label_set": labels}
    (root / "task.json").write_bytes(bom + json.dumps(spec).encode())
    return harness.TaskSpec.from_file(root / "task.json")


def _bom_report(root, bom):
    report = {"bins": [{"count": 3, "mean_confidence": 0.5, "mean_accuracy": 0.25}]}
    (root / "report.json").write_bytes(bom + json.dumps(report).encode())
    code = run_quietly(["report", str(root / "report.json"), "--output", str(root / "curve.csv")])
    return code, (root / "curve.csv").read_bytes()


@pytest.mark.parametrize("read", [_bom_sandbox, _bom_bins, _bom_task_spec, _bom_report])
def test_byte_order_mark_reads_as_without(tmp_path, read):
    """A leading UTF-8 byte-order mark, as Windows editors and Excel's "CSV
    UTF-8" write, changes nothing a config file, bin table, task spec or
    report gives."""
    results = []
    for name, bom in (("plain", b""), ("bom", BOM)):
        (tmp_path / name).mkdir()
        results.append(read(tmp_path / name, bom))
    assert results[0] == results[1]


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
            ("mock", b'{"tokens": ["Yes"], "distributions": [{"Yes": NaN}]}\n', EXIT_DATA),
            ("report", b'{"bins": 3}', EXIT_DATA),
            ("report", b"not json", EXIT_DATA),
            ("report", b'{"bins": [{"count": 1.5, "mean_confidence": 0.5, "mean_accuracy": 0.5}]}', EXIT_DATA),
            ("report", b'{"bins": [{"count": 3, "mean_confidence": null, "mean_accuracy": 0.5}]}', EXIT_DATA),
            ("report", b'{"bins": [{"count": 3, "mean_confidence": 0.5, "mean_accuracy": true}]}', EXIT_DATA),
            ("report", b'{"bins": [{"count": true, "mean_confidence": 0.5, "mean_accuracy": 0.5}]}', EXIT_DATA),
            ("report", b'{"bins": [{"count": 3, "mean_confidence": NaN, "mean_accuracy": 0.5}]}', EXIT_DATA),
            ("report", b'{"bins": [{"count": 3, "mean_confidence": 1%s, "mean_accuracy": 0.5}]}' % (b"0" * 400), EXIT_DATA),
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


# A valid raw value of every config key, and what it parses to.
SAMPLES = {
    "output_dir": ("o", "o"),
    "dataset": ("d.jsonl", "d.jsonl"),
    "task_spec": ("t.json", "t.json"),
    "mock_script": ("m.jsonl", "m.jsonl"),
    "cache_path": ("c.jsonl", "c.jsonl"),
    "base_url": ("http://127.0.0.1:9/v1", "http://127.0.0.1:9/v1"),
    "api_key_env": ("KEY", "KEY"),
    "model_name": ("m", "m"),
    "missing_policy": ("error", "error"),
    "concurrency": ("3", 3),
    "confidence_mode": ("both", "both"),
    "n_bins": ("4", 4),
    "taus": ("0.5,0.9", [0.5, 0.9]),
    "retriever_url": ("http://127.0.0.1:9/r", "http://127.0.0.1:9/r"),
    "data_distribution": ("0.6,0.4", [0.6, 0.4]),
    "steps": ("5", 5),
    "lr": ("0.2", 0.2),
    "batch_size": ("8", 8),
    "seed": ("3", 3),
}
COMMANDS = ("eval", "sweep", "sandbox")
UNREAD = [(command, key) for command in COMMANDS for key, spec in KEYS.items() if command not in spec["read_by"]]


class TestConfigTable:
    """Every (command, key) pair of the config table, and the docs of it."""

    def test_samples_cover_the_table(self):
        assert set(SAMPLES) == set(KEYS)

    @pytest.mark.parametrize("via", ["file", "env"])
    @pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_key_is_config_error(self, tmp_path, monkeypatch, command, key, via):
        config = tmp_path / "run.conf"
        line = f"{key} = {SAMPLES[key][0]}\n"
        config.write_text(f"output_dir = {tmp_path / 'out'}\n" + (line if via == "file" else ""))
        if via == "env":
            monkeypatch.setenv("CONFCAL_" + key.upper(), SAMPLES[key][0])
        code, err = run_quietly([command, "--config", str(config)])
        assert code == EXIT_CONFIG
        assert err == f"config error: {command} does not read config key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_key_the_command_reads_is_accepted(self, command):
        read = [key for key, spec in KEYS.items() if command in spec["read_by"]]
        cfg = RunConfig.from_mapping({key: SAMPLES[key][0] for key in read}, command)
        assert {key: getattr(cfg, key) for key in read} == {key: SAMPLES[key][1] for key in read}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_flags_of_the_table(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        flags = {"--" + key.replace("_", "-") for key, spec in KEYS.items() if spec["flag"] and command in spec["read_by"]}
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {"--help", "--config"} | flags

    def test_readme_table_matches(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("### Config keys", 1)[1].split("\n### ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        documented = {
            key: tuple(re.findall(r"`([a-z-]+)`", read_by))
            for keys, read_by in rows
            for key in re.findall(r"`([a-z_]+)`", keys)
        }
        assert documented == {key: spec["read_by"] for key, spec in KEYS.items()}
