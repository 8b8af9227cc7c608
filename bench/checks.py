"""Correctness checks that every benchmark run makes.

Each check is computed apart from the program, with the benchmark's own
numpy, or follows from a property the method must have. Each returns a
list of problems; an empty list means the output is right. The checks
take plain arrays and numbers, so their own test can hand them wrong
outputs.
"""

from __future__ import annotations

import math

import numpy as np

# Rows whose top two logits are closer than this are not held to argmax:
# incremental and parallel decoding may round such a tie either way.
ARGMAX_MARGIN = 1e-3
# float32 logits, summed over at most a few hundred tokens
LOGP_ATOL = 2e-3
NLL_RTOL = 1e-5


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax over the last axis, in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def token_nll(logits: np.ndarray, targets: np.ndarray, pad_id: int) -> tuple[float, int]:
    """Summed negative log-likelihood of non-pad ``targets`` (B, n) under
    ``logits`` (B, n, V), and the number of tokens summed."""
    logp = log_softmax(logits)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    keep = targets != pad_id
    return float(-picked[keep].sum()), int(keep.sum())


def losses_finite(losses: list[float]) -> list[str]:
    if not losses:
        return ["no training loss was logged"]
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    return [f"non-finite loss at logged steps {bad[:5]}"] if bad else []


def loss_fell(before: float, after: float) -> list[str]:
    if not after < before:
        return [f"held-out loss did not fall: {before:.6f} before, {after:.6f} after"]
    return []


def nll_agrees(program: float, own: float) -> list[str]:
    if not math.isclose(program, own, rel_tol=NLL_RTOL):
        return [f"corpus_nll {program:.9f} differs from the recomputed {own:.9f}"]
    return []


def greedy_fixed_point(
    logits: np.ndarray, tokens: list[int], budget: int, eos_id: int
) -> list[str]:
    """A greedy output is a fixed point of the teacher-forced forward.

    ``logits`` (n, V) come from the parallel decoder run on BOS + tokens;
    row t predicts tokens[t], and when the output stopped before the
    budget, row len(tokens) predicts the stop. Every such row must have
    its emitted token as the argmax, wherever the top two logits are
    further apart than ``ARGMAX_MARGIN``.
    """
    want = list(tokens) + ([eos_id] if len(tokens) < budget else [])
    if len(tokens) > budget:
        return [f"greedy output has {len(tokens)} tokens, budget {budget}"]
    if logits.shape[0] < len(want):
        return [f"{logits.shape[0]} logit rows for {len(want)} decisions"]
    problems = []
    for t, token in enumerate(want):
        row = logits[t]
        top2 = np.partition(row, -2)[-2:]
        if top2[1] - top2[0] <= ARGMAX_MARGIN:
            continue
        best = int(np.argmax(row))
        if best != token:
            what = "the stop" if t == len(tokens) else f"token {t}"
            problems.append(f"{what} is {token}, the parallel forward's argmax is {best}")
    return problems


def beam_consistent(
    logits: np.ndarray,
    tokens: list[int],
    budget: int,
    logp: float,
    score: float,
    alpha: float,
    eos_id: int,
) -> list[str]:
    """A beam result's ``logp`` is the log-probability of its tokens (and
    of EOS, when it stopped before the budget) under the parallel forward,
    and its ``score`` is ``logp / ((5 + len) / 6) ** alpha``, len counting
    the EOS."""
    ended = len(tokens) < budget
    want = list(tokens) + ([eos_id] if ended else [])
    if logits.shape[0] < len(want):
        return [f"{logits.shape[0]} logit rows for {len(want)} beam tokens"]
    rows = log_softmax(logits[: len(want)])
    own = float(rows[np.arange(len(want)), want].sum())
    problems = []
    if abs(own - logp) > LOGP_ATOL:
        problems.append(f"beam logp {logp:.6f}, recomputed {own:.6f}")
    length = len(want) if ended else max(len(tokens), 1)
    expected = logp / ((5.0 + length) / 6.0) ** alpha
    if not math.isclose(score, expected, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"beam score {score:.9f}, logp / penalty gives {expected:.9f}")
    return problems


def resident_floats(variant_k: int | None, d_model: int, floats_max: int, pushed: int) -> list[str]:
    """A windowed state holds exactly k rows once k tokens are in; an
    unwindowed one holds one row per token pushed."""
    rows = pushed if variant_k is None else min(pushed, variant_k)
    if floats_max != rows * d_model:
        return [f"resident state peaked at {floats_max} floats, expected {rows * d_model}"]
    return []


def audit_forwards(sentences: int, tgt_len: int, vocab: int) -> int:
    """Forwards of an exhaustive audit: one base pass per sentence, then
    every target position times every other non-reserved id (vocab - 4
    of the vocab - 3 ids from UNK up)."""
    return sentences * (1 + tgt_len * (vocab - 4))


def audit_passes(report, expected_forwards: int) -> list[str]:
    problems = []
    if not report.passed or report.violations:
        problems.append(f"windowed audit failed with {len(report.violations)} violations")
    if report.max_out_of_window_delta != 0.0:
        problems.append(f"out-of-window delta {report.max_out_of_window_delta!r}, not 0.0")
    if report.n_forwards != expected_forwards:
        problems.append(f"{report.n_forwards} forwards, expected {expected_forwards}")
    return problems


def audit_fails(report, expected_forwards: int) -> list[str]:
    problems = []
    if report.passed or not report.violations:
        problems.append("the contextual banded control passed the audit")
    if report.n_forwards != expected_forwards:
        problems.append(f"{report.n_forwards} forwards, expected {expected_forwards}")
    return problems
