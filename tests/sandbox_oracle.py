"""Reference numpy implementation of the sandbox arms.

These are the step functions as they were written on numpy arrays, kept
as the oracle that the float arithmetic of ``confcal.sandbox`` is checked
against. They draw from the Generator exactly as ``confcal.sandbox`` does,
so two equally seeded Generators stay in step.
"""

from __future__ import annotations

import numpy as np

from confcal.sandbox import (
    INNER_STEPS,
    KL_COEF,
    LOGIT_CLAMP,
    TRACE_EVERY,
    SandboxConfig,
    ToyPolicy,
    ToyTask,
    TraceStep,
)


def _clamped(logits: np.ndarray, delta: np.ndarray) -> np.ndarray:
    return np.clip(logits + delta, -LOGIT_CLAMP, LOGIT_CLAMP)


def _softmax(logits) -> np.ndarray:
    logits = np.asarray(logits)
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _apply(policy: ToyPolicy, delta: np.ndarray) -> ToyPolicy:
    return ToyPolicy(logits=_clamped(policy.logits, delta), reference_logits=policy.reference_logits)


def kl_to_data(task: ToyTask, policy: ToyPolicy) -> float:
    p = np.asarray(task.data_distribution)
    q = _softmax(policy.logits)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def ece_proxy(task: ToyTask, policy: ToyPolicy) -> float:
    top = int(np.argmax(task.data_distribution))
    return float(abs(_softmax(policy.logits)[top] - task.data_distribution[top]))


def ce_step(
    policy: ToyPolicy,
    task: ToyTask,
    batch_size: int = 64,
    lr: float = 0.1,
    rng: np.random.Generator | None = None,
    exact_gradient: bool = False,
) -> ToyPolicy:
    if exact_gradient:
        grad = _softmax(policy.logits) - task.data_distribution
    else:
        counts = rng.multinomial(batch_size, task.data_distribution)
        grad = _softmax(policy.logits) - counts / batch_size
    return _apply(policy, -lr * grad)


def _kl_penalty_gradient(q: np.ndarray, log_ref: np.ndarray) -> np.ndarray:
    diff = np.log(q) - log_ref
    kl = float(np.sum(q * diff))
    return q * (diff - kl)


def advantage_step(
    policy: ToyPolicy,
    task: ToyTask,
    reward_option: int,
    clip_eps: float = 0.2,
    lr: float = 0.1,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> ToyPolicy:
    old_probs = _softmax(policy.logits)
    actions = rng.choice(task.num_options, size=batch_size, p=old_probs)
    rewards = (actions == reward_option).astype(float)
    advantages = rewards - rewards.mean()
    if not advantages.any():
        return policy

    logits = policy.logits
    log_ref = np.log(_softmax(policy.reference_logits))
    sub_lr = lr / INNER_STEPS
    for _ in range(INNER_STEPS):
        probs = _softmax(logits)
        ratios = probs[actions] / old_probs[actions]
        active = ~(
            ((advantages > 0) & (ratios > 1 + clip_eps))
            | ((advantages < 0) & (ratios < 1 - clip_eps))
        )
        weights = np.where(active, advantages * ratios, 0.0) / batch_size
        grad = (
            np.bincount(actions, weights=weights, minlength=task.num_options)
            - weights.sum() * probs
        )
        grad -= KL_COEF * _kl_penalty_gradient(probs, log_ref)
        logits = _clamped(logits, sub_lr * grad)
    return ToyPolicy(logits=logits, reference_logits=policy.reference_logits)


def _dpo_margin(policy: ToyPolicy, preferred: int, rejected: int, beta: float) -> float:
    log_ratio = np.log(_softmax(policy.logits)) - np.log(_softmax(policy.reference_logits))
    return beta * (log_ratio[preferred] - log_ratio[rejected])


def dpo_step(
    policy: ToyPolicy,
    task: ToyTask,
    preferred: int,
    rejected: int,
    beta: float = 0.1,
    lr: float = 0.1,
) -> ToyPolicy:
    z = _dpo_margin(policy, preferred, rejected, beta)
    sigma_neg = 1.0 / (1.0 + np.exp(min(z, LOGIT_CLAMP)))
    direction = np.zeros_like(policy.logits)
    direction[preferred] = 1.0
    direction[rejected] = -1.0
    return _apply(policy, lr * beta * sigma_neg * direction)


def dpo_loss(policy: ToyPolicy, preferred: int, rejected: int, beta: float = 0.1) -> float:
    z = _dpo_margin(policy, preferred, rejected, beta)
    return float(np.log1p(np.exp(-z)))


def _trace_step(step: int, task: ToyTask, policy: ToyPolicy) -> TraceStep:
    return TraceStep(
        step=step,
        kl=kl_to_data(task, policy),
        ece_proxy=ece_proxy(task, policy),
        max_prob=float(_softmax(policy.logits).max()),
    )


def run_paradigm_comparison(task: ToyTask, config: SandboxConfig) -> tuple[dict, dict]:
    """The three arms' trace points and summary, as ``confcal.sandbox``
    computes them: (method -> list of TraceStep, summary)."""
    rng_ce = np.random.default_rng(config.seed)
    rng_adv = np.random.default_rng(config.seed + 1)
    policies = {name: ToyPolicy.uniform(task.num_options) for name in ("ce", "advantage", "dpo")}
    traces = {name: [_trace_step(0, task, policy)] for name, policy in policies.items()}
    for step in range(1, config.steps + 1):
        policies["ce"] = ce_step(policies["ce"], task, config.batch_size, config.lr, rng=rng_ce)
        policies["advantage"] = advantage_step(
            policies["advantage"], task, 0, lr=config.lr, batch_size=config.batch_size, rng=rng_adv
        )
        policies["dpo"] = dpo_step(policies["dpo"], task, 0, 1, lr=config.lr)
        if step % TRACE_EVERY == 0 or step == config.steps:
            for name, policy in policies.items():
                traces[name].append(_trace_step(step, task, policy))

    final = {name: points[-1] for name, points in traces.items()}
    summary = {
        "ce_final_kl": final["ce"].kl,
        "advantage_final_kl": final["advantage"].kl,
        "dpo_final_kl": final["dpo"].kl,
        "ce_final_max_prob": final["ce"].max_prob,
        "advantage_final_max_prob": final["advantage"].max_prob,
        "dpo_final_max_prob": final["dpo"].max_prob,
        "ce_most_calibrated": bool(
            final["ce"].kl < final["advantage"].kl and final["ce"].kl < final["dpo"].kl
        ),
    }
    return traces, summary
