"""Estimator-style front end: fit on parallel text, predict translations.

`MarkovTranslator` follows the scikit-learn parameter conventions
(constructor stores arguments verbatim, ``get_params``/``set_params``
round-trip, fitted state lives in trailing-underscore attributes) without
importing scikit-learn, so it drops into sklearn tooling that duck-types
estimators while the package stays numpy-only.
"""

from __future__ import annotations

import inspect
from typing import Sequence

from .data import Vocab, detokenize, numericalize, tokenize
from .decoding import decode_batch
from .evaluation import corpus_bleu
from .model import EOS_ID, ModelConfig, build_model, ensure_valid
from .training import TrainSettings, train


class NotFittedError(RuntimeError):
    """predict/score was called before fit."""


def check_is_fitted(estimator, attributes: Sequence[str]) -> None:
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet (missing {', '.join(missing)}); "
            "call fit with training pairs first"
        )


def check_parallel_texts(X, y=None) -> list[str]:
    """Validate a list of strings (and optionally a same-length target list)."""
    if isinstance(X, str):
        raise TypeError("expected a sequence of strings, got a single string")
    X = list(X)
    if not X:
        raise ValueError("empty input")
    for i, s in enumerate(X):
        if not isinstance(s, str):
            raise TypeError(f"item {i} is {type(s).__name__}, expected str")
    if y is not None:
        y = list(y)
        if len(y) != len(X):
            raise ValueError(f"X has {len(X)} rows, y has {len(y)}")
        for i, s in enumerate(y):
            if not isinstance(s, str):
                raise TypeError(f"target {i} is {type(s).__name__}, expected str")
    return X


class MarkovTranslator:
    """Window-constrained sequence-to-sequence translator.

    Parameters mirror the model and training configuration; `variant`
    selects the decoder flavor ("AT", "TAT", or "MAT") and `k` sets the
    window width for "MAT". `fit(X, y)` trains on source/target string
    lists, `predict(X)` translates, `score(X, y)` is corpus BLEU in [0, 1].
    """

    def __init__(
        self,
        variant: str = "MAT",
        k: int | None = 3,
        enc_layers: int = 2,
        dec_layers: int = 2,
        heads: int = 4,
        d_model: int = 64,
        d_ff: int = 128,
        dropout: float = 0.1,
        max_len: int = 64,
        tokenizer: str = "whitespace",
        max_vocab: int | None = None,
        min_freq: int = 1,
        steps: int = 1500,
        max_tokens_per_batch: int = 2000,
        base_lr: float = 0.05,
        warmup: int = 400,
        weight_decay: float = 0.01,
        clip_norm: float = 1.0,
        label_smoothing: float = 0.1,
        beam_size: int = 1,
        length_penalty: float = 0.0,
        seed: int = 0,
    ):
        self.variant = variant
        self.k = k
        self.enc_layers = enc_layers
        self.dec_layers = dec_layers
        self.heads = heads
        self.d_model = d_model
        self.d_ff = d_ff
        self.dropout = dropout
        self.max_len = max_len
        self.tokenizer = tokenizer
        self.max_vocab = max_vocab
        self.min_freq = min_freq
        self.steps = steps
        self.max_tokens_per_batch = max_tokens_per_batch
        self.base_lr = base_lr
        self.warmup = warmup
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.label_smoothing = label_smoothing
        self.beam_size = beam_size
        self.length_penalty = length_penalty
        self.seed = seed

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "MarkovTranslator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _model_config(self, src_vocab: int, tgt_vocab: int) -> ModelConfig:
        return ensure_valid(
            ModelConfig(
                variant=self.variant,
                k=self.k if self.variant == "MAT" else None,
                enc_layers=self.enc_layers,
                dec_layers=self.dec_layers,
                heads=self.heads,
                d_model=self.d_model,
                d_ff=self.d_ff,
                max_len=self.max_len,
                dropout=self.dropout,
                src_vocab_size=src_vocab,
                tgt_vocab_size=tgt_vocab,
                seed=self.seed,
            )
        )

    def fit(self, X: Sequence[str], y: Sequence[str]) -> "MarkovTranslator":
        """Train on parallel sentence lists; returns self."""
        X = check_parallel_texts(X, y)
        y = list(y)
        src_tok = [tokenize(s, self.tokenizer) for s in X]
        tgt_tok = [tokenize(s, self.tokenizer) for s in y]
        self.src_vocab_ = Vocab.build(src_tok, self.max_vocab, self.min_freq)
        self.tgt_vocab_ = Vocab.build(tgt_tok, self.max_vocab, self.min_freq)
        corpus = numericalize(
            list(zip(src_tok, tgt_tok)), self.src_vocab_, self.tgt_vocab_, self.max_len
        )
        if not corpus.items:
            raise ValueError("every training pair was dropped (too long or empty)")
        self.dropped_pairs_ = corpus.dropped
        cfg = self._model_config(len(self.src_vocab_), len(self.tgt_vocab_))
        self.model_ = build_model(cfg)
        settings = TrainSettings(
            steps=self.steps,
            max_tokens_per_batch=self.max_tokens_per_batch,
            base_lr=self.base_lr,
            warmup=self.warmup,
            weight_decay=self.weight_decay,
            clip_norm=self.clip_norm,
            label_smoothing=self.label_smoothing,
            seed=self.seed,
        )
        self.history_ = train(self.model_, corpus.items, settings)
        self.n_steps_ = self.steps
        return self

    def predict(self, X: Sequence[str]) -> list[str]:
        """Translate each source sentence."""
        check_is_fitted(self, ["model_", "src_vocab_", "tgt_vocab_"])
        X = check_parallel_texts(X)
        sources = []
        for s in X:
            ids = self.src_vocab_.encode(tokenize(s, self.tokenizer))
            # clip to the model's positional budget rather than erroring
            sources.append(ids[: self.max_len - 1] + [EOS_ID])
        decoded = decode_batch(self.model_, sources, self.beam_size, self.length_penalty)
        return [detokenize(self.tgt_vocab_.decode(out.tokens), self.tokenizer) for out in decoded]

    def score(self, X: Sequence[str], y: Sequence[str]) -> float:
        """Corpus BLEU of predict(X) against y, in [0, 1]."""
        check_parallel_texts(X, y)
        hyps = [tokenize(h, self.tokenizer) for h in self.predict(X)]
        refs = [tokenize(r, self.tokenizer) for r in y]
        return corpus_bleu(hyps, refs)
