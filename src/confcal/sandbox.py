"""Toy softmax-policy sandbox contrasting training paradigms.

One synthetic context, K answer options, one softmax policy. Cross-entropy
training matches the data distribution (calibrated); clipped
advantage-weighted updates and pairwise preference updates concentrate
probability mass on rewarded/preferred options regardless of data
frequencies (sharpened).

``ToyTask`` and ``ToyPolicy`` are immutable tuples of Python floats, and the
arms compute on floats: on vectors of K = 2 entries numpy's cost per call
outweighs the arithmetic. numpy only draws, from the seeded
``np.random.Generator`` of each sampling arm: the CE arm draws its batch's
counts with ``rng.multinomial``; the advantage arm draws ``batch_size``
uniforms with ``rng.random`` and places each on the normalised cumulative sum
of its old probabilities, as ``Generator.choice`` does, so its counts and its
stream are numpy's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidInput

LOGIT_CLAMP = 50.0

# advantage_step: weight of the KL(pi || pi_ref) penalty, and ascent steps per update
KL_COEF = 0.001
INNER_STEPS = 10

# run_paradigm_comparison records a trace point every TRACE_EVERY steps
TRACE_EVERY = 10


def _clamped(logits: tuple[float, ...], delta: list[float]) -> list[float]:
    return [min(max(x + d, -LOGIT_CLAMP), LOGIT_CLAMP) for x, d in zip(logits, delta)]


def _softmax(logits: tuple[float, ...] | list[float]) -> list[float]:
    top = max(logits)
    e = [math.exp(x - top) for x in logits]
    total = sum(e)
    return [v / total for v in e]


def _vector(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats. float() refuses a list or an array
    row, so a nested or non-numeric vector is one InvalidInput."""
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be a flat vector of numbers") from None


@dataclass(frozen=True)
class ToyTask:
    data_distribution: tuple[float, ...]

    def __post_init__(self):
        p = _vector("data_distribution", self.data_distribution)
        object.__setattr__(self, "data_distribution", p)
        if len(p) < 2:
            raise InvalidInput("data_distribution needs at least 2 options")
        if not all(math.isfinite(x) for x in p):
            raise InvalidInput("data_distribution entries must be finite")
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise InvalidInput("data_distribution must be a probability vector")

    @property
    def num_options(self) -> int:
        return len(self.data_distribution)


@dataclass(frozen=True)
class ToyPolicy:
    logits: tuple[float, ...]
    reference_logits: tuple[float, ...] = None  # type: ignore[assignment]  # None: the logits

    def __post_init__(self):
        logits = _vector("logits", self.logits)
        reference = logits
        if self.reference_logits is not None:
            reference = _vector("reference_logits", self.reference_logits)
        if len(reference) != len(logits):
            raise InvalidInput("logits and reference_logits must be vectors of one length")
        # the range every step keeps: no probability underflows to 0, so
        # every log and ratio of the arms is defined
        if not all(-LOGIT_CLAMP <= x <= LOGIT_CLAMP for x in logits + reference):
            raise InvalidInput(f"logits must lie in [-{LOGIT_CLAMP}, {LOGIT_CLAMP}]")
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "reference_logits", reference)

    @classmethod
    def uniform(cls, num_options: int) -> "ToyPolicy":
        return cls(logits=(0.0,) * num_options)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(_softmax(self.logits))

    def _apply(self, delta: list[float]) -> "ToyPolicy":
        return ToyPolicy(logits=_clamped(self.logits, delta), reference_logits=self.reference_logits)


def _logits_on(policy: ToyPolicy, task: ToyTask) -> tuple[float, ...]:
    """The policy's logits, once they are known to cover the task's options."""
    if len(policy.logits) != task.num_options:
        raise InvalidInput(f"policy has {len(policy.logits)} options, task has {task.num_options}")
    return policy.logits


def _check_option(name: str, option: int, num_options: int) -> None:
    if not 0 <= option < num_options:
        raise InvalidInput(f"{name} must be an option index in [0, {num_options}), got {option}")


def _check_step(lr: float, batch_size: int = 1) -> None:
    if not 0 <= lr < math.inf:  # NaN included
        raise InvalidInput(f"lr must be finite and >= 0, got {lr}")
    if batch_size < 1:
        raise InvalidInput("batch_size must be >= 1")


def _check_rng(rng: np.random.Generator | None) -> None:
    if rng is None:  # every draw comes from a seeded Generator
        raise InvalidInput("a sampled step needs rng, a seeded np.random.Generator")


def kl_to_data(task: ToyTask, policy: ToyPolicy) -> float:
    q = _softmax(_logits_on(policy, task))
    return sum(p * (math.log(p) - math.log(r)) for p, r in zip(task.data_distribution, q) if p > 0)


def ece_proxy(task: ToyTask, policy: ToyPolicy) -> float:
    data = task.data_distribution
    top = data.index(max(data))
    return abs(_softmax(_logits_on(policy, task))[top] - data[top])


def ce_gradient_exact(policy: ToyPolicy, task: ToyTask) -> list[float]:
    """Exact expected NLL gradient: softmax(logits) - P_data."""
    return [q - p for q, p in zip(_softmax(_logits_on(policy, task)), task.data_distribution)]


def ce_step(
    policy: ToyPolicy,
    task: ToyTask,
    batch_size: int = 64,
    lr: float = 0.1,
    rng: np.random.Generator | None = None,
    exact_gradient: bool = False,
) -> ToyPolicy:
    """One gradient step on mean NLL of a batch that ``rng`` samples from
    the data, or with ``exact_gradient`` on the data distribution itself."""
    _check_step(lr, batch_size)
    probs = _softmax(_logits_on(policy, task))
    if exact_gradient:
        target = task.data_distribution
    else:
        _check_rng(rng)
        counts = rng.multinomial(batch_size, task.data_distribution).tolist()
        target = [c / batch_size for c in counts]
    delta = [-lr * (p - t) for p, t in zip(probs, target)]
    return policy._apply(delta)


def _draw_counts(rng: np.random.Generator, probs: list[float], batch_size: int) -> list[int]:
    """Per-option counts of ``batch_size`` draws from ``probs``, equal to
    ``np.bincount(rng.choice(len(probs), size=batch_size, p=probs))``.

    ``Generator.choice`` with ``p`` and replacement divides the cumulative
    sum of ``p`` by its last entry, draws ``rng.random(size)`` and places
    each uniform with ``searchsorted(side="right")``; this does the same, so
    the counts are numpy's and the Generator advances by ``batch_size``
    doubles.
    """
    cdf = list(accumulate(probs))
    last = cdf[-1]
    cdf = [c / last for c in cdf]
    counts = [0] * len(probs)
    for u in rng.random(batch_size).tolist():
        counts[bisect_right(cdf, u)] += 1
    return counts


def advantage_step(
    policy: ToyPolicy,
    task: ToyTask,
    reward_option: int,
    clip_eps: float = 0.2,
    lr: float = 0.1,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> ToyPolicy:
    """One clipped-ratio advantage-weighted update from an old-policy snapshot.

    Rewards are 1 for ``reward_option`` and 0 otherwise; advantages
    subtract the batch-mean reward. The inner ascent masks out samples
    whose probability ratio left the trust region, and a KL(pi || pi_ref)
    penalty of weight ``KL_COEF`` pulls toward the reference. The batch is
    drawn from ``rng``.
    """
    if not 0 < clip_eps < 1:
        raise InvalidInput("clip_eps must be in (0,1)")
    _check_step(lr, batch_size)
    logits = _logits_on(policy, task)
    num_options = len(logits)
    _check_option("reward_option", reward_option, num_options)
    _check_rng(rng)

    old_probs = _softmax(logits)
    # Reward, advantage and ratio depend only on the sampled option, so the
    # batch reduces to a count per option and the loop costs O(K).
    counts = _draw_counts(rng, old_probs, batch_size)
    hits = counts[reward_option]
    if hits in (0, batch_size):
        return policy  # zero advantage everywhere: exactly no update

    mean = hits / batch_size
    advantages = [(1.0 if k == reward_option else 0.0) - mean for k in range(num_options)]
    log_ref = [math.log(p) for p in _softmax(policy.reference_logits)]
    options = list(zip(counts, advantages, old_probs, log_ref))
    upper, lower = 1 + clip_eps, 1 - clip_eps
    sub_lr = lr / INNER_STEPS
    for _ in range(INNER_STEPS):
        top = max(logits)
        e = [math.exp(x - top) for x in logits]
        norm = sum(e)
        probs, weights, diffs, kl_terms = [], [], [], []
        for v, (n, adv, old, r) in zip(e, options):
            p = v / norm
            ratio = p / old
            # standard clip mask: no gradient once the clipped branch is active
            clipped = (adv > 0 and ratio > upper) or (adv < 0 and ratio < lower)
            d = math.log(p) - r
            probs.append(p)
            weights.append(0.0 if clipped else n * (adv * ratio / batch_size))
            diffs.append(d)
            kl_terms.append(p * d)
        total = sum(weights)
        # d/dlogits KL(pi || pi_ref) for a softmax parameterization is p (d - kl)
        kl = sum(kl_terms)
        logits = [
            min(max(x + sub_lr * (w - total * p - KL_COEF * (p * (d - kl))), -LOGIT_CLAMP), LOGIT_CLAMP)
            for x, w, p, d in zip(logits, weights, probs, diffs)
        ]
    return ToyPolicy(logits=logits, reference_logits=policy.reference_logits)


def _dpo_margin(policy: ToyPolicy, preferred: int, rejected: int, beta: float) -> float:
    """beta (log r(y_w) - log r(y_l)) with r(y) = pi(y)/pi_ref(y)."""
    if preferred == rejected:
        raise InvalidInput("preferred and rejected must differ")
    if not beta > 0:  # NaN included
        raise InvalidInput("beta must be > 0")
    for name, option in (("preferred", preferred), ("rejected", rejected)):
        _check_option(name, option, len(policy.logits))
    probs = _softmax(policy.logits)
    ref = _softmax(policy.reference_logits)
    log_ratio_w = math.log(probs[preferred]) - math.log(ref[preferred])
    log_ratio_l = math.log(probs[rejected]) - math.log(ref[rejected])
    return beta * (log_ratio_w - log_ratio_l)


def dpo_step(
    policy: ToyPolicy,
    task: ToyTask,
    preferred: int,
    rejected: int,
    beta: float = 0.1,
    lr: float = 0.1,
) -> ToyPolicy:
    """One gradient step on -log sigmoid(beta (log r(y_w) - log r(y_l)))
    with r(y) = pi(y)/pi_ref(y)."""
    _check_step(lr)
    delta = [0.0] * len(_logits_on(policy, task))
    z = _dpo_margin(policy, preferred, rejected, beta)
    sigma_neg = 1.0 / (1.0 + math.exp(min(z, LOGIT_CLAMP)))
    step = lr * beta * sigma_neg
    delta[preferred] = step
    delta[rejected] = -step
    return policy._apply(delta)


def dpo_loss(policy: ToyPolicy, preferred: int, rejected: int, beta: float = 0.1) -> float:
    z = _dpo_margin(policy, preferred, rejected, beta)
    # log(1 + e^-z), written so that e^|z| never overflows
    return max(-z, 0.0) + math.log1p(math.exp(-abs(z)))


@dataclass(frozen=True)
class SandboxConfig:
    steps: int = 3000
    lr: float = 0.1
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise InvalidInput("steps and batch_size must be >= 1")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        _check_step(self.lr)


@dataclass(frozen=True)
class TraceStep:
    step: int
    kl: float
    ece_proxy: float
    max_prob: float


def _trace_point(step: int, task: ToyTask, policy: ToyPolicy) -> TraceStep:
    return TraceStep(
        step=step,
        kl=kl_to_data(task, policy),
        ece_proxy=ece_proxy(task, policy),
        max_prob=max(_softmax(policy.logits)),
    )


def run_paradigm_comparison(task: ToyTask, config: SandboxConfig = SandboxConfig()) -> tuple[dict, dict]:
    """Train CE, advantage-weighted, and preference arms from one init: the
    advantage arm rewards option 0, the preference arm prefers option 0 over
    option 1, each at its step function's default clip or beta. Returns each
    arm's trace of ``TraceStep`` points by name, and the summary of the
    final points."""
    rng_ce = np.random.default_rng(config.seed)
    rng_adv = np.random.default_rng(config.seed + 1)
    # Each arm's step by name. The lambdas look the step functions up at
    # each call, so a wrapper installed on this module sees every step.
    arms = {
        "ce": lambda policy: ce_step(policy, task, config.batch_size, config.lr, rng=rng_ce),
        "advantage": lambda policy: advantage_step(
            policy, task, 0, lr=config.lr, batch_size=config.batch_size, rng=rng_adv
        ),
        "dpo": lambda policy: dpo_step(policy, task, 0, 1, lr=config.lr),
    }
    init = ToyPolicy.uniform(task.num_options)
    policies = dict.fromkeys(arms, init)
    traces = {name: [_trace_point(0, task, init)] for name in arms}
    for step in range(1, config.steps + 1):
        for name, arm_step in arms.items():
            policies[name] = arm_step(policies[name])
        if step % TRACE_EVERY == 0 or step == config.steps:
            for name, policy in policies.items():
                traces[name].append(_trace_point(step, task, policy))

    final = {name: points[-1] for name, points in traces.items()}
    summary: dict[str, float | bool] = {f"{name}_final_kl": final[name].kl for name in arms}
    summary.update({f"{name}_final_max_prob": final[name].max_prob for name in arms})
    summary["ce_most_calibrated"] = all(final["ce"].kl < final[name].kl for name in arms if name != "ce")
    return traces, summary
