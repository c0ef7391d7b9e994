"""Calibrated confidence from LLM token log-probabilities.

Confidence arithmetic (candidate-set normalization, Yes/No self-evaluation),
calibration metrics (AUROC, equal-mass ECE), a logprob-aware chat-completion
client with a deterministic mock backend, an evaluation harness, a
confidence-gated retrieval controller, and a toy training-paradigm sandbox.
"""

__version__ = "0.1.0"
