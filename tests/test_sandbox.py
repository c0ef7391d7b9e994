"""Tests for the toy training-paradigm sandbox."""

import dataclasses
import math

import numpy as np
import pytest

from confcal import sandbox
from confcal.errors import InvalidInput
from confcal.sandbox import (
    SandboxConfig,
    ToyPolicy,
    ToyTask,
    advantage_step,
    ce_gradient_exact,
    ce_step,
    dpo_loss,
    dpo_step,
    kl_to_data,
    run_paradigm_comparison,
)


def binary_task(p=0.7):
    return ToyTask(np.array([p, 1 - p]))


class TestTypes:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(InvalidInput):
            ToyTask(np.array([0.5, 0.4]))

    def test_needs_two_options(self):
        with pytest.raises(InvalidInput):
            ToyTask(np.array([1.0]))

    def test_policy_softmax_normalized(self):
        policy = ToyPolicy(logits=np.array([3.0, -1.0, 0.5]))
        assert sum(policy.probs) == pytest.approx(1.0, abs=1e-12)

    def test_values_are_float_tuples(self):
        task = ToyTask(np.array([0.25, 0.75]))
        policy = ToyPolicy(logits=np.array([1, -1]), reference_logits=np.array([0.5, 0.0]))
        for values in (task.data_distribution, policy.logits, policy.reference_logits, policy.probs):
            assert type(values) is tuple and all(type(x) is float for x in values)

    def test_policy_attributes_cannot_be_reassigned(self):
        policy = ToyPolicy.uniform(2)
        for name in ("logits", "reference_logits"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(policy, name, (1.0, 0.0))

    def test_reference_logits_immutable(self):
        policy = ToyPolicy.uniform(2)
        with pytest.raises(TypeError):
            policy.reference_logits[0] = 5.0


class TestCeStep:
    def test_sampled_training_matches_data(self):
        task = binary_task(0.7)
        rng = np.random.default_rng(0)
        policy = ToyPolicy.uniform(2)
        for _ in range(5000):
            policy = ce_step(policy, task, batch_size=64, lr=0.1, rng=rng)
        assert abs(policy.probs[0] - 0.7) < 0.03
        assert abs(policy.probs[1] - 0.3) < 0.03

    def test_point_mass_data(self):
        task = ToyTask(np.array([0.0, 1.0]))
        policy = ToyPolicy.uniform(2)
        for _ in range(2000):
            policy = ce_step(policy, task, exact_gradient=True, lr=0.2)
        assert policy.probs[1] > 0.99

    def test_zero_lr_no_change(self):
        task = binary_task()
        policy = ToyPolicy(logits=np.array([0.3, -0.2]))
        updated = ce_step(policy, task, lr=0.0, rng=np.random.default_rng(1))
        assert np.array_equal(updated.logits, policy.logits)

    def test_exact_gradient_monotone_kl(self):
        task = binary_task(0.6)
        policy = ToyPolicy(logits=np.array([2.0, -2.0]))
        prev = kl_to_data(task, policy)
        for _ in range(300):
            policy = ce_step(policy, task, exact_gradient=True, lr=0.05)
            current = kl_to_data(task, policy)
            assert current <= prev + 1e-14
            prev = current

    def test_sampled_gradient_converges_to_oracle(self):
        # batch mean gradient approaches the exact P_data-expectation gradient
        task = ToyTask(np.array([0.5, 0.3, 0.2]))
        policy = ToyPolicy(logits=np.array([0.4, -0.1, 0.2]))
        rng = np.random.default_rng(42)
        batch = 100_000
        counts = rng.multinomial(batch, task.data_distribution)
        sampled_grad = policy.probs - counts / batch
        exact_grad = ce_gradient_exact(policy, task)
        cosine = np.dot(sampled_grad, exact_grad) / (
            np.linalg.norm(sampled_grad) * np.linalg.norm(exact_grad)
        )
        assert cosine > 0.99


class TestAdvantageStep:
    def test_sharpens_past_data_distribution(self):
        task = ToyTask(np.array([0.6, 0.4]))
        rng = np.random.default_rng(0)
        policy = ToyPolicy.uniform(2)
        for _ in range(3000):
            policy = advantage_step(policy, task, reward_option=0, rng=rng)
        assert policy.probs[0] > 0.99
        assert abs(policy.probs[0] - 0.6) > 0.35

    def test_small_clip_bounds_ratio(self):
        task = binary_task(0.5)
        rng = np.random.default_rng(3)
        policy = ToyPolicy.uniform(2)
        eps = 0.01
        old_probs = policy.probs
        updated = advantage_step(policy, task, reward_option=0, clip_eps=eps, lr=0.5, rng=rng)
        ratios = [new / old for new, old in zip(updated.probs, old_probs)]
        # trust region plus the last sub-step's overshoot
        assert max(ratios) <= 1 + eps + 0.02
        assert min(ratios) >= 1 - eps - 0.02

    def test_invalid_clip_rejected(self):
        with pytest.raises(InvalidInput):
            advantage_step(ToyPolicy.uniform(2), binary_task(), 0, clip_eps=1.5)

    def test_sampled_steps_need_a_seeded_generator(self):
        """Every draw comes from the caller's Generator: there is no unseeded
        fallback. The exact CE gradient draws nothing, so it needs none."""
        policy, task = ToyPolicy.uniform(2), binary_task()
        for step in (lambda: ce_step(policy, task), lambda: advantage_step(policy, task, 0)):
            with pytest.raises(InvalidInput, match="^a sampled step needs rng"):
                step()
        assert ce_step(policy, task, exact_gradient=True).logits != policy.logits


class TestDpoStep:
    def test_converges_to_preferred_regardless_of_data(self):
        task = binary_task(0.3)  # data prefers option 1
        policy = ToyPolicy.uniform(2)
        for _ in range(4000):
            policy = dpo_step(policy, task, preferred=0, rejected=1)
        assert policy.probs[0] > 0.99

    def test_loss_at_reference_is_ln2(self):
        policy = ToyPolicy.uniform(2)
        assert dpo_loss(policy, 0, 1) == pytest.approx(math.log(2))

    def test_beta_preserves_update_direction(self):
        policy = ToyPolicy.uniform(3)
        task = ToyTask(np.array([0.5, 0.3, 0.2]))
        small = dpo_step(policy, task, 1, 2, beta=0.1, lr=0.1)
        large = dpo_step(policy, task, 1, 2, beta=0.2, lr=0.1)
        delta_small = np.subtract(small.logits, policy.logits)
        delta_large = np.subtract(large.logits, policy.logits)
        assert np.argmax(delta_small) == np.argmax(delta_large) == 1
        assert np.argmin(delta_small) == np.argmin(delta_large) == 2

    def test_same_option_rejected(self):
        with pytest.raises(InvalidInput, match="^preferred and rejected must differ$"):
            dpo_step(ToyPolicy.uniform(2), binary_task(), 1, 1)
        with pytest.raises(InvalidInput, match="^preferred and rejected must differ$"):
            dpo_loss(ToyPolicy.uniform(2), 0, 0)

    def test_beta_must_be_positive(self):
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInput, match="^beta must be > 0$"):
                dpo_step(ToyPolicy.uniform(2), binary_task(), 0, 1, beta=beta)
            with pytest.raises(InvalidInput, match="^beta must be > 0$"):
                dpo_loss(ToyPolicy.uniform(2), 0, 1, beta=beta)

    def test_reference_untouched_by_training(self):
        policy = ToyPolicy.uniform(2)
        reference_before = policy.reference_logits
        for _ in range(50):
            policy = dpo_step(policy, binary_task(), 0, 1)
        assert np.array_equal(policy.reference_logits, reference_before)


class TestComparison:
    def test_default_run_contrast(self):
        _, summary = run_paradigm_comparison(binary_task(0.7))
        assert summary["ce_final_kl"] < 0.01
        assert summary["advantage_final_max_prob"] > 0.99
        assert summary["dpo_final_max_prob"] > 0.99
        assert summary["ce_most_calibrated"]

    def test_symmetric_fixed_point(self):
        task = ToyTask(np.array([0.5, 0.5]))
        ce_rng = np.random.default_rng(0)
        ce = ToyPolicy.uniform(2)
        for _ in range(500):
            ce = ce_step(ce, task, rng=ce_rng)
        assert max(ce.probs) < 0.6

    def test_every_arm_step_goes_through_the_module(self, monkeypatch):
        # a tracer wraps the module's step functions; it sees only the calls
        # that look them up there
        calls = {}
        for name in ("ce_step", "advantage_step", "dpo_step"):
            real = getattr(sandbox, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(sandbox, name, counting)
        run_paradigm_comparison(binary_task(), SandboxConfig(steps=30))
        assert calls == {"ce_step": 30, "advantage_step": 30, "dpo_step": 30}

    def test_fixed_seed_reproducible(self):
        config = SandboxConfig(steps=200)
        a, _ = run_paradigm_comparison(binary_task(), config)
        b, _ = run_paradigm_comparison(binary_task(), config)
        for name in a:
            assert a[name] == b[name]

    def test_softmax_normalized_every_step(self):
        config = SandboxConfig(steps=100)
        traces, _ = run_paradigm_comparison(binary_task(), config)
        # traces are finite and probabilities implicitly normalized; spot-check arms
        task = binary_task()
        rng = np.random.default_rng(9)
        policy = ToyPolicy.uniform(2)
        for _ in range(100):
            policy = advantage_step(policy, task, 0, rng=rng)
            assert sum(policy.probs) == pytest.approx(1.0, abs=1e-12)
            policy2 = dpo_step(policy, task, 0, 1)
            assert sum(policy2.probs) == pytest.approx(1.0, abs=1e-12)
        for trace in traces.values():
            assert all(np.isfinite([s.kl, s.max_prob, s.ece_proxy]).all() for s in trace)
