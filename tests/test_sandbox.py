"""Tests for the toy training-paradigm sandbox."""

import math

import numpy as np
import pytest

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
        assert policy.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reference_logits_immutable(self):
        policy = ToyPolicy.uniform(2)
        with pytest.raises(ValueError):
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

    def test_uniform_reward_zero_update(self):
        task = binary_task()
        rng = np.random.default_rng(0)
        policy = ToyPolicy.uniform(2)
        updated = advantage_step(policy, task, reward_option=None, rng=rng)
        assert np.array_equal(updated.logits, policy.logits)

    def test_small_clip_bounds_ratio(self):
        task = binary_task(0.5)
        rng = np.random.default_rng(3)
        policy = ToyPolicy.uniform(2)
        eps = 0.01
        old_probs = policy.probs
        updated = advantage_step(policy, task, reward_option=0, clip_eps=eps, lr=0.5, rng=rng)
        ratios = updated.probs / old_probs
        # trust region plus the last sub-step's overshoot
        assert ratios.max() <= 1 + eps + 0.02
        assert ratios.min() >= 1 - eps - 0.02

    def test_invalid_clip_rejected(self):
        with pytest.raises(InvalidInput):
            advantage_step(ToyPolicy.uniform(2), binary_task(), 0, clip_eps=1.5)


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
        delta_small = small.logits - policy.logits
        delta_large = large.logits - policy.logits
        assert np.argmax(delta_small) == np.argmax(delta_large) == 1
        assert np.argmin(delta_small) == np.argmin(delta_large) == 2

    def test_same_option_rejected(self):
        with pytest.raises(InvalidInput):
            dpo_step(ToyPolicy.uniform(2), binary_task(), 1, 1)

    def test_reference_untouched_by_training(self):
        policy = ToyPolicy.uniform(2)
        reference_before = policy.reference_logits.copy()
        for _ in range(50):
            policy = dpo_step(policy, binary_task(), 0, 1)
        assert np.array_equal(policy.reference_logits, reference_before)


class TestComparison:
    def test_default_run_contrast(self):
        result = run_paradigm_comparison(binary_task(0.7))
        assert result.summary["ce_final_kl"] < 0.01
        assert result.summary["advantage_final_max_prob"] > 0.99
        assert result.summary["dpo_final_max_prob"] > 0.99
        assert result.summary["ce_most_calibrated"]

    def test_symmetric_fixed_point(self):
        task = ToyTask(np.array([0.5, 0.5]))
        ce_rng, adv_rng = np.random.default_rng(0), np.random.default_rng(1)
        ce = advantage = ToyPolicy.uniform(2)
        for _ in range(500):
            ce = ce_step(ce, task, rng=ce_rng)
            advantage = advantage_step(advantage, task, reward_option=None, rng=adv_rng)
        assert ce.probs.max() < 0.6
        assert advantage.probs.max() < 0.6

    def test_fixed_seed_reproducible(self):
        config = SandboxConfig(steps=200)
        a = run_paradigm_comparison(binary_task(), config)
        b = run_paradigm_comparison(binary_task(), config)
        for name in a.traces:
            assert a.traces[name].steps == b.traces[name].steps

    def test_softmax_normalized_every_step(self):
        config = SandboxConfig(steps=100)
        result = run_paradigm_comparison(binary_task(), config)
        # traces are finite and probabilities implicitly normalized; spot-check arms
        task = binary_task()
        rng = np.random.default_rng(9)
        policy = ToyPolicy.uniform(2)
        for _ in range(100):
            policy = advantage_step(policy, task, 0, rng=rng)
            assert policy.probs.sum() == pytest.approx(1.0, abs=1e-12)
            policy2 = dpo_step(policy, task, 0, 1)
            assert policy2.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for trace in result.traces.values():
            assert all(np.isfinite([s.kl, s.max_prob, s.ece_proxy]).all() for s in trace.steps)
