"""Toy softmax-policy sandbox contrasting training paradigms.

One synthetic context, K answer options, one softmax policy. Cross-entropy
training matches the data distribution (calibrated); clipped
advantage-weighted updates and pairwise preference updates concentrate
probability mass on rewarded/preferred options regardless of data
frequencies (sharpened).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput

LOGIT_CLAMP = 50.0

# advantage_step: weight of the KL(pi || pi_ref) penalty, and ascent steps per update
KL_COEF = 0.001
INNER_STEPS = 10

# run_paradigm_comparison records a trace point every TRACE_EVERY steps
TRACE_EVERY = 10


def _clamped(logits: np.ndarray, delta: np.ndarray) -> np.ndarray:
    return np.clip(logits + delta, -LOGIT_CLAMP, LOGIT_CLAMP)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


@dataclass(frozen=True)
class ToyTask:
    data_distribution: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.data_distribution, dtype=float)
        object.__setattr__(self, "data_distribution", p)
        if p.ndim != 1 or p.size < 2:
            raise InvalidInput("data_distribution needs at least 2 options")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise InvalidInput("data_distribution must be a probability vector")

    @property
    def num_options(self) -> int:
        return self.data_distribution.size


@dataclass
class ToyPolicy:
    logits: np.ndarray
    reference_logits: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float).copy()
        if self.reference_logits is None:
            self.reference_logits = self.logits.copy()
        else:
            self.reference_logits = np.asarray(self.reference_logits, dtype=float).copy()
        self.reference_logits.setflags(write=False)

    @classmethod
    def uniform(cls, num_options: int) -> "ToyPolicy":
        return cls(logits=np.zeros(num_options))

    @property
    def probs(self) -> np.ndarray:
        return _softmax(self.logits)

    @property
    def reference_probs(self) -> np.ndarray:
        return _softmax(self.reference_logits)

    def _apply(self, delta: np.ndarray) -> "ToyPolicy":
        return ToyPolicy(logits=_clamped(self.logits, delta), reference_logits=self.reference_logits)


def kl_to_data(task: ToyTask, policy: ToyPolicy) -> float:
    p = task.data_distribution
    q = policy.probs
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def ece_proxy(task: ToyTask, policy: ToyPolicy) -> float:
    top = int(np.argmax(task.data_distribution))
    return float(abs(policy.probs[top] - task.data_distribution[top]))


def ce_gradient_exact(policy: ToyPolicy, task: ToyTask) -> np.ndarray:
    """Exact expected NLL gradient: softmax(logits) - P_data."""
    return policy.probs - task.data_distribution


def ce_step(
    policy: ToyPolicy,
    task: ToyTask,
    batch_size: int = 64,
    lr: float = 0.1,
    rng: np.random.Generator | None = None,
    exact_gradient: bool = False,
) -> ToyPolicy:
    """One gradient step on mean NLL of a batch sampled from the data."""
    if lr < 0:
        raise InvalidInput("lr must be >= 0")
    if exact_gradient:
        grad = ce_gradient_exact(policy, task)
    else:
        if rng is None:
            rng = np.random.default_rng()
        counts = rng.multinomial(batch_size, task.data_distribution)
        grad = policy.probs - counts / batch_size
    return policy._apply(-lr * grad)


def _kl_penalty_gradient(q: np.ndarray, log_ref: np.ndarray) -> np.ndarray:
    # d/dlogits KL(pi || pi_ref) for a softmax parameterization, q = pi
    diff = np.log(q) - log_ref
    kl = float(np.sum(q * diff))
    return q * (diff - kl)


def advantage_step(
    policy: ToyPolicy,
    task: ToyTask,
    reward_option: int | None,
    clip_eps: float = 0.2,
    lr: float = 0.1,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> ToyPolicy:
    """One clipped-ratio advantage-weighted update from an old-policy snapshot.

    Rewards are 1 for ``reward_option`` (all options, when None) and 0
    otherwise; advantages subtract the batch-mean reward. The inner ascent
    masks out samples whose probability ratio left the trust region.
    """
    if not 0 < clip_eps < 1:
        raise InvalidInput("clip_eps must be in (0,1)")
    if rng is None:
        rng = np.random.default_rng()

    old_probs = policy.probs
    actions = rng.choice(task.num_options, size=batch_size, p=old_probs)
    if reward_option is None:
        rewards = np.ones(batch_size)
    else:
        rewards = (actions == reward_option).astype(float)
    advantages = rewards - rewards.mean()
    if not advantages.any():
        return policy  # zero advantage everywhere: exactly no update

    # plain arrays inside the loop; one policy is built from the result
    logits = policy.logits
    log_ref = np.log(policy.reference_probs)
    sub_lr = lr / INNER_STEPS
    for _ in range(INNER_STEPS):
        probs = _softmax(logits)
        ratios = probs[actions] / old_probs[actions]
        # standard clip mask: no gradient once the clipped branch is active
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
    """beta (log r(y_w) - log r(y_l)) with r(y) = pi(y)/pi_ref(y)."""
    log_ratio = np.log(policy.probs) - np.log(policy.reference_probs)
    return beta * (log_ratio[preferred] - log_ratio[rejected])


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
    if preferred == rejected:
        raise InvalidInput("preferred and rejected must differ")
    if beta <= 0:
        raise InvalidInput("beta must be > 0")
    z = _dpo_margin(policy, preferred, rejected, beta)
    sigma_neg = 1.0 / (1.0 + np.exp(min(z, LOGIT_CLAMP)))
    direction = np.zeros_like(policy.logits)
    direction[preferred] = 1.0
    direction[rejected] = -1.0
    return policy._apply(lr * beta * sigma_neg * direction)


def dpo_loss(policy: ToyPolicy, preferred: int, rejected: int, beta: float = 0.1) -> float:
    z = _dpo_margin(policy, preferred, rejected, beta)
    return float(np.log1p(np.exp(-z)))


@dataclass(frozen=True)
class SandboxConfig:
    steps: int = 3000
    lr: float = 0.1
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise InvalidInput("steps and batch_size must be >= 1")
        if self.lr < 0:
            raise InvalidInput("lr must be >= 0")


@dataclass(frozen=True)
class TraceStep:
    step: int
    kl: float
    ece_proxy: float
    max_prob: float


@dataclass
class TrainTrace:
    method: str
    steps: list[TraceStep] = field(default_factory=list)

    def record(self, step: int, task: ToyTask, policy: ToyPolicy) -> None:
        self.steps.append(
            TraceStep(
                step=step,
                kl=kl_to_data(task, policy),
                ece_proxy=ece_proxy(task, policy),
                max_prob=float(policy.probs.max()),
            )
        )

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]


@dataclass
class ComparisonResult:
    traces: dict[str, TrainTrace]
    summary: dict[str, float | bool]


def run_paradigm_comparison(task: ToyTask, config: SandboxConfig = SandboxConfig()) -> ComparisonResult:
    """Train CE, advantage-weighted, and preference arms from one init: the
    advantage arm rewards option 0, the preference arm prefers option 0 over
    option 1, each at its step function's default clip or beta."""
    init = ToyPolicy.uniform(task.num_options)
    traces = {name: TrainTrace(method=name) for name in ("ce", "advantage", "dpo")}

    rng_ce = np.random.default_rng(config.seed)
    rng_adv = np.random.default_rng(config.seed + 1)

    policies = {
        "ce": replace(init),
        "advantage": replace(init),
        "dpo": replace(init),
    }
    for name in traces:
        traces[name].record(0, task, policies[name])

    for step in range(1, config.steps + 1):
        policies["ce"] = ce_step(
            policies["ce"], task, config.batch_size, config.lr, rng=rng_ce
        )
        policies["advantage"] = advantage_step(
            policies["advantage"], task, 0, lr=config.lr, batch_size=config.batch_size, rng=rng_adv
        )
        policies["dpo"] = dpo_step(policies["dpo"], task, 0, 1, lr=config.lr)
        if step % TRACE_EVERY == 0 or step == config.steps:
            for name in traces:
                traces[name].record(step, task, policies[name])

    ce_kl = traces["ce"].final.kl
    adv_kl = traces["advantage"].final.kl
    dpo_kl = traces["dpo"].final.kl
    summary = {
        "ce_final_kl": ce_kl,
        "advantage_final_kl": adv_kl,
        "dpo_final_kl": dpo_kl,
        "ce_final_max_prob": traces["ce"].final.max_prob,
        "advantage_final_max_prob": traces["advantage"].final.max_prob,
        "dpo_final_max_prob": traces["dpo"].final.max_prob,
        "ce_most_calibrated": bool(ce_kl < adv_kl and ce_kl < dpo_kl),
    }
    return ComparisonResult(traces=traces, summary=summary)
