"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (``setup``), then
runs rounds of operations, one per model and round: MAT(k=5) first, then
the reference model (role ``ref``). Every operation's output is checked
before the next one starts; the checks run outside the timed part.
Models are built with fixed seeds, so only the inputs depend on the
workload seed.
"""

from __future__ import annotations

import ctypes
import functools
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from markovnmt import audit, data, decoding, model, training
from markovnmt.model import BOS_ID, EOS_ID, PAD_ID
from markovnmt.tensor import no_grad


@dataclass
class Op:
    """One timed operation: ``units`` of work in ``seconds``."""

    role: str
    units: float
    seconds: float
    problems: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.error is not None


def attempt(role: str, fn) -> Op:
    """Run one operation; a raised error fails it instead of the run."""
    try:
        return fn()
    except Exception:  # the boundary that keeps the run going
        return Op(role, 0.0, 0.0, error=traceback.format_exc())


@functools.cache
def _openblas_get_threads():
    """numpy's bundled OpenBLAS thread getter, or None under another BLAS."""
    pkg = Path(np.__file__).parent
    candidates = [*pkg.parent.glob("numpy.libs/libscipy_openblas*"), *pkg.glob(".dylibs/libscipy_openblas*")]
    for path in sorted(candidates):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get
    return None


def blas_threads() -> int:
    """Threads numpy's OpenBLAS would use now; 0 when it is not found."""
    get = _openblas_get_threads()
    return int(get()) if get is not None else 0


def _pad(rows: list[list[int]]) -> np.ndarray:
    out = np.full((len(rows), max(len(r) for r in rows)), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def heldout_nll(m, items) -> float:
    """The benchmark's own token-weighted NLL of ``items``, from the logits
    of ``decode_forward_batch`` in batches of 64."""
    total, count = 0.0, 0
    for lo in range(0, len(items), 64):
        chunk = items[lo : lo + 64]
        src = _pad([s for s, _ in chunk])
        tgt_in = _pad([[BOS_ID] + t for _, t in chunk])
        tgt_out = _pad([t + [EOS_ID] for _, t in chunk])
        with no_grad():
            memory = model.encode_batch(m, src, src != PAD_ID)
            logits = model.decode_forward_batch(m, memory, tgt_in, src != PAD_ID).data
        s, n = checks.token_nll(logits, tgt_out, PAD_ID)
        total, count = total + s, count + n
    return total / count


# ---------------------------------------------------------------------------


class Workload:
    """Set-up, one timed operation, and the checks made around the timed part.

    ``setup(seed)`` returns the run's context, a dict; ``op(ctx, role, r)``
    runs round ``r``'s operation on the model of ``role`` and checks it.
    """

    name: str

    def prepare(self, ctx) -> list[Op]:
        """Checks made before the timed part."""
        return []

    def finish(self, ctx) -> list[Op]:
        """Checks made after the timed part."""
        return []


class TrainPeriodic(Workload):
    """``train()`` on the criterion-08 config, MAT(k=5) then AT."""

    name = "train-periodic"
    steps_per_op = 10

    def setup(self, seed: int):
        spec = data.SyntheticSpec(
            task="periodic_mode", n_pairs=4000, len_range=(12, 20), vocab_size=6, d=4, seed=seed
        )
        pairs = data.generate_pairs(spec)
        train_pairs, heldout_pairs = data.split_pairs(pairs, 0.15, seed)
        vocab = data.Vocab.build([side for pair in train_pairs for side in pair])
        items = data.numericalize(train_pairs, vocab, vocab, 32).items
        heldout = data.numericalize(heldout_pairs, vocab, vocab, 32).items
        base = model.ModelConfig(
            variant="MAT", k=5, enc_layers=2, dec_layers=2, heads=4, d_model=64, d_ff=128,
            src_vocab_size=len(vocab), tgt_vocab_size=len(vocab), max_len=32, dropout=0.0, seed=0,
        )
        settings = training.TrainSettings(
            max_tokens_per_batch=2200, base_lr=0.05, warmup=400, label_smoothing=0.0,
            weight_decay=0.0, log_every=1, seed=seed,
        )
        models = {
            "mat5": model.build_model(base),
            "ref": model.build_model(replace(base, variant="AT", k=None)),
        }
        return {
            "seed": seed,
            "items": items,
            "heldout": heldout[:256],
            "settings": settings,
            "models": models,
            "opts": {role: training.AdamW.from_settings(settings) for role in models},
            "before": {},
            "threads": [],
        }

    def heldout(self, ctx, after: bool) -> list[Op]:
        """``corpus_nll`` on the held-out pairs agrees with the benchmark's
        own NLL; after the timed part, it is below the NLL before."""
        ops = []
        for role, m in ctx["models"].items():
            def probe(role=role, m=m):
                own = heldout_nll(m, ctx["heldout"])
                problems = checks.nll_agrees(training.corpus_nll(m, ctx["heldout"]), own)
                if after:
                    problems += checks.loss_fell(ctx["before"][role], own)
                else:
                    ctx["before"][role] = own
                return Op(role, 0.0, 0.0, problems)
            ops.append(attempt(role, probe))
        return ops

    def prepare(self, ctx) -> list[Op]:
        return self.heldout(ctx, after=False)

    def op(self, ctx, role: str, r: int) -> Op:
        losses, tokens = [], []

        def hook(_step, entry):
            if not ctx["threads"]:
                ctx["threads"].append(blas_threads())
            losses.append(entry["loss"])
            tokens.append(entry["n_tokens"])

        settings = replace(ctx["settings"], steps=self.steps_per_op, seed=ctx["seed"] * 1000 + r)
        start = time.perf_counter()
        training.train(ctx["models"][role], ctx["items"], settings, opt=ctx["opts"][role], hook=hook)
        seconds = time.perf_counter() - start
        return Op(role, float(sum(tokens)), seconds, checks.losses_finite(losses))

    def finish(self, ctx) -> list[Op]:
        return self.heldout(ctx, after=True)


class TranslateLong(Workload):
    """Greedy, then beam-4, decoding of long sources with untrained models."""

    name = "translate-long"
    beam, alpha, beam_budget = 4, 0.6, 40

    def setup(self, seed: int):
        spec = data.SyntheticSpec(task="copy", n_pairs=64, len_range=(40, 100), vocab_size=28, seed=seed)
        pairs = data.generate_pairs(spec)
        vocab = data.Vocab.build([src for src, _ in pairs])
        by_length = sorted((src for src, _ in data.numericalize(pairs, vocab, vocab, 128).items), key=len)
        # bit-reversed order: the sources of any run of consecutive rounds
        # spread evenly over the length range, so a short run sees the
        # same mix of lengths as a long one
        bits = (len(by_length) - 1).bit_length()
        order = sorted(range(len(by_length)), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
        sources = [by_length[i] for i in order]
        base = model.ModelConfig(
            variant="MAT", k=5, enc_layers=2, dec_layers=2, heads=4, d_model=64, d_ff=128,
            src_vocab_size=len(vocab), tgt_vocab_size=len(vocab), max_len=128, dropout=0.0, seed=0,
        )
        models = {
            "mat5": model.build_model(base),
            "ref": model.build_model(replace(base, variant="AT", k=None)),
        }
        return {"sources": sources, "models": models, "threads": [], "first": {}}

    def op(self, ctx, role: str, r: int) -> Op:
        m = ctx["models"][role]
        src = ctx["sources"][r % len(ctx["sources"])]
        if not ctx["threads"]:
            ctx["threads"].append(blas_threads())
        start = time.perf_counter()
        greedy = decoding.greedy_decode(m, src)
        result = decoding.beam_decode(m, src, beam_size=self.beam, alpha=self.alpha, max_new=self.beam_budget)
        seconds = time.perf_counter() - start
        ctx["first"].setdefault(role, (src, greedy))

        budget = m.config.max_len - 1
        with ctx["pause"](), no_grad():
            memory = model.encode(m, src)
            greedy_logits = model.decode_forward(m, memory, [BOS_ID] + greedy).data
            beam_logits = model.decode_forward(m, memory, [BOS_ID] + result.tokens).data
        problems = checks.greedy_fixed_point(greedy_logits, greedy, budget, EOS_ID)
        problems += checks.beam_consistent(
            beam_logits, result.tokens, self.beam_budget, result.logp, result.score, self.alpha, EOS_ID
        )
        return Op(role, float(len(greedy) + len(result.tokens)), seconds, problems)

    def finish(self, ctx) -> list[Op]:
        """Decode the first source again step by step through the public
        state API, and check the state size and the tokens."""
        ops = []
        for role, (src, greedy) in ctx["first"].items():
            def probe(role=role, src=src, greedy=greedy):
                m = ctx["models"][role]
                state = decoding.init_state(m, src)
                tokens, peak = [], state.resident_floats()
                for _ in range(m.config.max_len - 1):
                    token = int(np.argmax(decoding.incremental_step(state)))
                    if token == EOS_ID:
                        break
                    tokens.append(token)
                    state.push(token)
                    peak = max(peak, state.resident_floats())
                problems = checks.resident_floats(m.config.window(), m.config.d_model, peak, state.step)
                if tokens != greedy:
                    problems.append("step-by-step decoding differs from greedy_decode")
                return Op(role, 0.0, 0.0, problems)
            ops.append(attempt(role, probe))
        return ops


class AuditExact(Workload):
    """The exact perturbation audit: MAT(k=5), then the contextual banded
    control MAT(k=2, transparent=False), which must fail."""

    name = "audit-exact"
    sentences, src_len, tgt_len, vocab = 1, 10, 30, 16

    def setup(self, seed: int):
        base = model.ModelConfig(
            variant="MAT", k=5, enc_layers=2, dec_layers=2, heads=4, d_model=64, d_ff=128,
            src_vocab_size=self.vocab, tgt_vocab_size=self.vocab, max_len=32, dropout=0.0, seed=0,
        )
        models = {
            "mat5": model.build_model(base),
            "ref": model.build_model(replace(base, k=2, transparent=False)),
        }
        return {"seed": seed, "models": models, "threads": []}

    def op(self, ctx, role: str, r: int) -> Op:
        if not ctx["threads"]:
            ctx["threads"].append(blas_threads())
        start = time.perf_counter()
        report = audit.audit_model(
            ctx["models"][role], n_sentences=self.sentences, src_len=self.src_len,
            tgt_len=self.tgt_len, seed=ctx["seed"] * 1000 + r,
        )
        seconds = time.perf_counter() - start
        expected = checks.audit_forwards(self.sentences, self.tgt_len, self.vocab)
        check = checks.audit_passes if role == "mat5" else checks.audit_fails
        return Op(role, float(report.n_forwards), seconds, check(report, expected))


WORKLOADS = {w.name: w for w in (TrainPeriodic, TranslateLong, AuditExact)}
