"""The sandbox arms on Python floats: argument checks at each step's entry,
agreement with the numpy oracle in ``sandbox_oracle``, and the pinned
bytes of ``confcal sandbox``."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sandbox_oracle as oracle
from confcal.cli import EXIT_OK, load_config_file, main
from confcal.errors import InvalidInput
from confcal.sandbox import (
    LOGIT_CLAMP,
    SandboxConfig,
    ToyPolicy,
    ToyTask,
    _draw_counts,
    advantage_step,
    ce_gradient_exact,
    ce_step,
    dpo_loss,
    dpo_step,
    ece_proxy,
    kl_to_data,
    run_paradigm_comparison,
)

ROOT = Path(__file__).resolve().parent.parent


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binary_task():
    return ToyTask(np.array([0.7, 0.3]))


class TestArgumentChecks:
    """Each bad call is one-line InvalidInput, raised before any draw."""

    def raises(self, call, *args, **kwargs):
        with pytest.raises(InvalidInput) as info:
            call(*args, **kwargs)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("dist", [[math.nan, 1.0], [1.0, math.nan], [0.5, 0.5, math.nan]])
    def test_non_finite_distribution(self, dist):
        self.raises(ToyTask, np.array(dist))

    @pytest.mark.parametrize("dist", [[[0.5, 0.5]], np.full((2, 2), 0.25), ["a", "b"], 0.5])
    def test_nested_or_non_numeric_distribution(self, dist):
        self.raises(ToyTask, dist)

    def test_batch_size_at_least_one(self):
        rng = np.random.default_rng(0)
        self.raises(ce_step, ToyPolicy.uniform(2), binary_task(), batch_size=0, rng=rng)
        self.raises(advantage_step, ToyPolicy.uniform(2), binary_task(), 0, batch_size=0, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf])
    def test_lr_not_negative(self, lr):
        rng = np.random.default_rng(0)
        self.raises(ce_step, ToyPolicy.uniform(2), binary_task(), lr=lr, rng=rng)
        self.raises(advantage_step, ToyPolicy.uniform(2), binary_task(), 0, lr=lr, rng=rng)
        self.raises(dpo_step, ToyPolicy.uniform(2), binary_task(), 0, 1, lr=lr)

    @pytest.mark.parametrize("option", [2, 7, -1])
    def test_reward_option_in_range(self, option):
        self.raises(advantage_step, ToyPolicy.uniform(2), binary_task(), option, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("preferred, rejected", [(0, 5), (5, 0), (-1, 0), (0, 2)])
    def test_preference_options_in_range(self, preferred, rejected):
        self.raises(dpo_step, ToyPolicy.uniform(2), binary_task(), preferred, rejected)
        self.raises(dpo_loss, ToyPolicy.uniform(2), preferred, rejected)

    def test_policy_and_task_agree_on_options(self):
        policy, task, rng = ToyPolicy.uniform(3), binary_task(), np.random.default_rng(0)
        self.raises(ce_step, policy, task, rng=rng)
        self.raises(ce_step, policy, task, exact_gradient=True)
        self.raises(ce_gradient_exact, policy, task)
        self.raises(advantage_step, policy, task, 0, rng=rng)
        self.raises(dpo_step, policy, task, 0, 1)
        self.raises(kl_to_data, task, policy)
        self.raises(ece_proxy, task, policy)

    def test_reference_matches_logits_in_length(self):
        self.raises(ToyPolicy, logits=np.zeros(3), reference_logits=np.zeros(2))
        self.raises(ToyPolicy, logits=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [-800.0, 50.5, math.inf, math.nan])
    def test_logits_within_the_clamp(self, bad):
        self.raises(ToyPolicy, logits=[0.0, bad])
        self.raises(ToyPolicy, logits=[0.0, 0.0], reference_logits=[bad, 0.0])
        ToyPolicy(logits=[-50.0, 50.0])


logit = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def step_cases(draw):
    k = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(0, 10), min_size=k, max_size=k).filter(any))
    preferred, rejected = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    return {
        "task": ToyTask(np.array(weights) / sum(weights)),
        "policy": ToyPolicy(
            logits=draw(st.lists(logit, min_size=k, max_size=k)),
            reference_logits=draw(st.lists(logit, min_size=k, max_size=k)),
        ),
        "batch_size": draw(st.integers(1, 128)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "reward_option": draw(st.integers(0, k - 1)),
        "preferred": preferred,
        "rejected": rejected,
        "lr": draw(st.floats(0.0, 1.0)),
        "clip_eps": draw(st.floats(0.01, 0.99)),
    }


class TestOracle:
    """The float arms against the numpy oracle: logits within 1e-12, and the
    Generator left where the oracle leaves it."""

    def assert_same(self, fast, slow):
        assert np.max(np.abs(np.subtract(fast.logits, slow.logits))) <= 1e-12
        assert np.array_equal(fast.reference_logits, slow.reference_logits)

    def assert_same_next_draw(self, rng_fast, rng_slow):
        assert rng_fast.random() == rng_slow.random()

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_ce_step(self, case):
        policy, task, b, lr = case["policy"], case["task"], case["batch_size"], case["lr"]
        rng_fast, rng_slow = np.random.default_rng(case["seed"]), np.random.default_rng(case["seed"])
        self.assert_same(
            ce_step(policy, task, b, lr, rng=rng_fast), oracle.ce_step(policy, task, b, lr, rng=rng_slow)
        )
        self.assert_same_next_draw(rng_fast, rng_slow)
        self.assert_same(
            ce_step(policy, task, lr=lr, exact_gradient=True),
            oracle.ce_step(policy, task, lr=lr, exact_gradient=True),
        )

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_advantage_step(self, case):
        policy, task = case["policy"], case["task"]
        rng_fast, rng_slow = np.random.default_rng(case["seed"]), np.random.default_rng(case["seed"])
        kwargs = dict(clip_eps=case["clip_eps"], lr=case["lr"], batch_size=case["batch_size"])
        fast = advantage_step(policy, task, case["reward_option"], rng=rng_fast, **kwargs)
        slow = oracle.advantage_step(policy, task, case["reward_option"], rng=rng_slow, **kwargs)
        self.assert_same(fast, slow)
        assert (fast is policy) == (slow is policy)
        self.assert_same_next_draw(rng_fast, rng_slow)

    @settings(max_examples=200, deadline=None)
    @given(step_cases(), st.floats(0.01, 2.0))
    def test_dpo_step_and_loss(self, case, beta):
        policy, task, w, l = case["policy"], case["task"], case["preferred"], case["rejected"]
        self.assert_same(
            dpo_step(policy, task, w, l, beta=beta, lr=case["lr"]),
            oracle.dpo_step(policy, task, w, l, beta=beta, lr=case["lr"]),
        )
        assert dpo_loss(policy, w, l, beta) == pytest.approx(oracle.dpo_loss(policy, w, l, beta), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_trace_metrics(self, case):
        policy, task = case["policy"], case["task"]
        assert kl_to_data(task, policy) == pytest.approx(oracle.kl_to_data(task, policy), abs=1e-12)
        assert ece_proxy(task, policy) == pytest.approx(oracle.ece_proxy(task, policy), abs=1e-12)


class TestDraw:
    """The advantage arm's draw is ``Generator.choice``'s, across the whole
    clamp range, where the arm spends its later steps near a point mass:
    the same counts per option, and the Generator left where choice leaves
    it."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-LOGIT_CLAMP, LOGIT_CLAMP), min_size=2, max_size=6),
        st.integers(1, 512),
        st.integers(min_value=0),
    )
    def test_counts_equal_choice(self, logits, batch_size, seed):
        probs = list(ToyPolicy(logits).probs)
        rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = _draw_counts(rng_fast, probs, batch_size)
        actions = rng_slow.choice(len(probs), size=batch_size, p=probs)
        assert counts == np.bincount(actions, minlength=len(probs)).tolist()
        assert rng_fast.random() == rng_slow.random()


def _six_decimals(traces, summary):
    points = [
        f"{step.step},{name},{step.kl:.6f},{step.max_prob:.6f},{step.ece_proxy:.6f}"
        for name, steps in traces.items()
        for step in steps
    ]
    return points, {k: f"{v:.6f}" if isinstance(v, float) else v for k, v in summary.items()}


class TestPinnedBytes:
    def test_default_run_matches_expected_digests(self, tmp_path):
        config = _bench_gen().sandbox_config(tmp_path, 0, 1000)
        out = tmp_path / "out"
        assert main(["sandbox", "--config", str(config), "--output-dir", str(out)]) == EXIT_OK
        expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
        for name, digest in expected["digests"]["sandbox"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_matches_oracle_at_six_decimals(self, tmp_path, seed):
        values = load_config_file(_bench_gen().sandbox_config(tmp_path, seed, 200))
        task = ToyTask(np.array([float(x) for x in values["data_distribution"].split(",")]))
        config = SandboxConfig(steps=int(values["steps"]), seed=int(values["seed"]))
        result = run_paradigm_comparison(task, config)
        assert _six_decimals(result.traces, result.summary) == _six_decimals(*oracle.run_paradigm_comparison(task, config))
