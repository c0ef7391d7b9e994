"""Toy softmax-policy sandbox contrasting training paradigms.

One synthetic context, K answer options, one softmax policy. Cross-entropy
training matches the data distribution (calibrated); clipped
advantage-weighted updates and pairwise preference updates concentrate
probability mass on rewarded/preferred options regardless of data
frequencies (sharpened).

The arms compute on Python floats: on vectors of K = 2 entries numpy's cost
per call outweighs the arithmetic. Every draw still comes from the seeded
``np.random.Generator``, and ``ToyTask`` and ``ToyPolicy`` hold numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput

LOGIT_CLAMP = 50.0

# advantage_step: weight of the KL(pi || pi_ref) penalty, and ascent steps per update
KL_COEF = 0.001
INNER_STEPS = 10

# run_paradigm_comparison records a trace point every TRACE_EVERY steps
TRACE_EVERY = 10


def _clamped(logits: list[float], delta: list[float]) -> list[float]:
    return [min(max(x + d, -LOGIT_CLAMP), LOGIT_CLAMP) for x, d in zip(logits, delta)]


def _softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    e = [math.exp(x - top) for x in logits]
    total = sum(e)
    return [v / total for v in e]


@dataclass(frozen=True)
class ToyTask:
    data_distribution: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.data_distribution, dtype=float)
        object.__setattr__(self, "data_distribution", p)
        if p.ndim != 1 or p.size < 2:
            raise InvalidInput("data_distribution needs at least 2 options")
        if not np.isfinite(p).all():
            raise InvalidInput("data_distribution entries must be finite")
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
        self.logits = np.array(self.logits, dtype=float)
        if self.reference_logits is None:
            self.reference_logits = self.logits.copy()
        else:
            self.reference_logits = np.array(self.reference_logits, dtype=float)
        if self.logits.ndim != 1 or self.reference_logits.shape != self.logits.shape:
            raise InvalidInput("logits and reference_logits must be vectors of one length")
        # the range every step keeps: no probability underflows to 0, so
        # every log and ratio of the arms is defined
        values = self.logits.tolist() + self.reference_logits.tolist()
        if not all(-LOGIT_CLAMP <= x <= LOGIT_CLAMP for x in values):
            raise InvalidInput(f"logits must lie in [-{LOGIT_CLAMP}, {LOGIT_CLAMP}]")
        self.reference_logits.setflags(write=False)

    @classmethod
    def uniform(cls, num_options: int) -> "ToyPolicy":
        return cls(logits=np.zeros(num_options))

    @property
    def probs(self) -> np.ndarray:
        return np.array(_softmax(self.logits.tolist()))

    @property
    def reference_probs(self) -> np.ndarray:
        return np.array(_softmax(self.reference_logits.tolist()))

    def _apply(self, delta: list[float]) -> "ToyPolicy":
        return ToyPolicy(logits=_clamped(self.logits.tolist(), delta), reference_logits=self.reference_logits)


def _logits_on(policy: ToyPolicy, task: ToyTask) -> list[float]:
    """The policy's logits as floats, once they are known to cover the task's options."""
    if policy.logits.size != task.num_options:
        raise InvalidInput(f"policy has {policy.logits.size} options, task has {task.num_options}")
    return policy.logits.tolist()


def _check_option(name: str, option: int, num_options: int) -> None:
    if not 0 <= option < num_options:
        raise InvalidInput(f"{name} must be an option index in [0, {num_options}), got {option}")


def _check_step(lr: float, batch_size: int = 1) -> None:
    if not lr >= 0:  # NaN included
        raise InvalidInput("lr must be >= 0")
    if batch_size < 1:
        raise InvalidInput("batch_size must be >= 1")


def kl_to_data(task: ToyTask, policy: ToyPolicy) -> float:
    q = _softmax(_logits_on(policy, task))
    return sum(
        p * (math.log(p) - math.log(r)) for p, r in zip(task.data_distribution.tolist(), q) if p > 0
    )


def ece_proxy(task: ToyTask, policy: ToyPolicy) -> float:
    data = task.data_distribution.tolist()
    top = data.index(max(data))
    return abs(_softmax(_logits_on(policy, task))[top] - data[top])


def ce_gradient_exact(policy: ToyPolicy, task: ToyTask) -> np.ndarray:
    """Exact expected NLL gradient: softmax(logits) - P_data."""
    return np.array(_softmax(_logits_on(policy, task))) - task.data_distribution


def ce_step(
    policy: ToyPolicy,
    task: ToyTask,
    batch_size: int = 64,
    lr: float = 0.1,
    rng: np.random.Generator | None = None,
    exact_gradient: bool = False,
) -> ToyPolicy:
    """One gradient step on mean NLL of a batch sampled from the data."""
    _check_step(lr, batch_size)
    probs = _softmax(_logits_on(policy, task))
    if exact_gradient:
        target = task.data_distribution.tolist()
    else:
        if rng is None:
            rng = np.random.default_rng()
        counts = rng.multinomial(batch_size, task.data_distribution).tolist()
        target = [c / batch_size for c in counts]
    delta = [-lr * (p - t) for p, t in zip(probs, target)]
    return policy._apply(delta)


def _kl_penalty_gradient(q: list[float], log_ref: list[float]) -> list[float]:
    # d/dlogits KL(pi || pi_ref) for a softmax parameterization, q = pi
    diff = [math.log(p) - r for p, r in zip(q, log_ref)]
    kl = sum(p * d for p, d in zip(q, diff))
    return [p * (d - kl) for p, d in zip(q, diff)]


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
    _check_step(lr, batch_size)
    logits = _logits_on(policy, task)
    num_options = len(logits)
    if reward_option is not None:
        _check_option("reward_option", reward_option, num_options)
    if rng is None:
        rng = np.random.default_rng()

    old_probs = _softmax(logits)
    actions = rng.choice(num_options, size=batch_size, p=old_probs).tolist()
    hits = batch_size if reward_option is None else actions.count(reward_option)
    if hits in (0, batch_size):
        return policy  # zero advantage everywhere: exactly no update

    # Reward, advantage and ratio depend only on the sampled option, so the
    # batch reduces to a count per option and the loop costs O(K).
    counts = [actions.count(k) for k in range(num_options)]
    mean = hits / batch_size
    advantages = [(1.0 if k == reward_option else 0.0) - mean for k in range(num_options)]
    log_ref = [math.log(p) for p in _softmax(policy.reference_logits.tolist())]
    sub_lr = lr / INNER_STEPS
    for _ in range(INNER_STEPS):
        probs = _softmax(logits)
        weights = []
        for n, adv, p, old in zip(counts, advantages, probs, old_probs):
            ratio = p / old
            # standard clip mask: no gradient once the clipped branch is active
            clipped = (adv > 0 and ratio > 1 + clip_eps) or (adv < 0 and ratio < 1 - clip_eps)
            weights.append(0.0 if clipped else n * (adv * ratio / batch_size))
        total = sum(weights)
        penalty = _kl_penalty_gradient(probs, log_ref)
        grad = [w - total * p - KL_COEF * k for w, p, k in zip(weights, probs, penalty)]
        logits = _clamped(logits, [sub_lr * g for g in grad])
    return ToyPolicy(logits=logits, reference_logits=policy.reference_logits)


def _dpo_margin(policy: ToyPolicy, preferred: int, rejected: int, beta: float) -> float:
    """beta (log r(y_w) - log r(y_l)) with r(y) = pi(y)/pi_ref(y)."""
    for name, option in (("preferred", preferred), ("rejected", rejected)):
        _check_option(name, option, policy.logits.size)
    probs = _softmax(policy.logits.tolist())
    ref = _softmax(policy.reference_logits.tolist())
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
    if preferred == rejected:
        raise InvalidInput("preferred and rejected must differ")
    if beta <= 0:
        raise InvalidInput("beta must be > 0")
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
                max_prob=max(_softmax(policy.logits.tolist())),
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
