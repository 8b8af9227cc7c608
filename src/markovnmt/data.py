"""Corpus handling and synthetic task generators.

Vocabulary ids 0..3 are reserved (pad, bos, eos, unk) everywhere in the
package. Parallel text lives in two-column TSV (source TAB target), one
pair per line; synthetic corpora get a JSON sidecar describing how they
were generated so experiments can rebuild their evaluation filters.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .model import BOS_ID, EOS_ID, PAD_ID, UNK_ID

RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")
TOKENIZERS = ("whitespace", "char")
TASKS = ("copy", "reverse", "periodic_mode")

MODE_TOKENS = ("A", "B")


class CorpusError(ValueError):
    """Corpus file is malformed; message lists offending line numbers."""


class VocabError(ValueError):
    """Symbol table is malformed: reserved symbols, duplicates or non-strings."""


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    if mode == "whitespace":
        return text.split()
    if mode == "char":
        return [ch for ch in text if not ch.isspace()]
    raise ValueError(f"unknown tokenizer {mode!r}")


def detokenize(tokens: Sequence[str], mode: str = "whitespace") -> str:
    if mode == "whitespace":
        return " ".join(tokens)
    if mode == "char":
        return "".join(tokens)
    raise ValueError(f"unknown tokenizer {mode!r}")


@dataclass
class Vocab:
    """Symbol table with the four reserved ids up front.

    Ordering is frequency-descending with lexicographic tie-breaks, so a
    rebuilt vocabulary from the same corpus is identical.
    """

    itos: list[str]
    stoi: dict[str, int] = field(repr=False, default=None)

    def __post_init__(self):
        if self.itos[: len(RESERVED)] != list(RESERVED):
            raise VocabError("vocab must start with the reserved symbols")
        bad = [s for s in self.itos if not isinstance(s, str)]
        if bad:
            raise VocabError(f"vocab entries must be strings, got {bad[:5]!r}")
        dup = sorted(s for s, n in Counter(self.itos).items() if n > 1)
        if dup:
            raise VocabError(f"vocab lists symbols more than once: {dup[:5]!r}")
        if self.stoi is None:
            self.stoi = {s: i for i, s in enumerate(self.itos)}

    def __len__(self) -> int:
        return len(self.itos)

    @classmethod
    def build(
        cls,
        token_seqs: Iterable[Sequence[str]],
        max_size: int | None = None,
        min_freq: int = 1,
    ) -> "Vocab":
        """max_size counts the reserved ids; min_freq drops rare symbols."""
        counts: Counter[str] = Counter()
        for seq in token_seqs:
            counts.update(seq)
        for sym in RESERVED:
            counts.pop(sym, None)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        keep = [sym for sym, c in ranked if c >= min_freq]
        if max_size is not None:
            if max_size <= len(RESERVED):
                raise ValueError(f"max_size must exceed {len(RESERVED)} reserved ids")
            keep = keep[: max_size - len(RESERVED)]
        return cls(itos=list(RESERVED) + keep)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return list(map(self.stoi.get, tokens, repeat(UNK_ID)))

    def decode(self, ids: Sequence[int], strip_reserved: bool = True) -> list[str]:
        toks = []
        for i in ids:
            if not 0 <= i < len(self.itos):
                raise ValueError(f"id {i} outside vocabulary of size {len(self.itos)}")
            if strip_reserved and i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            toks.append(self.itos[i])
        return toks

    def to_dict(self) -> dict:
        return {"itos": self.itos}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        if not isinstance(d, dict) or not isinstance(d.get("itos"), list):
            raise VocabError("vocab is not an object with an 'itos' list")
        return cls(itos=list(d["itos"]))


def parse_corpus(path: str) -> list[tuple[str, str]]:
    """Read a two-column TSV of (source, target) pairs.

    Every line must have exactly one tab and non-empty sides; all bad lines
    are reported together. An empty file parses to an empty corpus with a
    warning rather than an error.
    """
    pairs: list[tuple[str, str]] = []
    problems: list[str] = []
    # undecodable bytes become lone surrogates, so the line that holds them
    # can be named instead of aborting the read
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                problems.append(f"line {lineno}: invalid UTF-8")
                continue
            if not line:
                problems.append(f"line {lineno}: empty line")
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                problems.append(f"line {lineno}: expected 2 tab-separated fields, got {len(cols)}")
                continue
            src, tgt = cols
            if not src.strip() or not tgt.strip():
                problems.append(f"line {lineno}: empty source or target")
                continue
            pairs.append((src, tgt))
    if problems:
        shown = "; ".join(problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise CorpusError(f"{path}: {shown}{more}")
    if not pairs:
        warnings.warn(f"{path}: corpus is empty", stacklevel=2)
    return pairs


def write_tsv(path: str, pairs: Iterable[tuple[str, str]]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt in pairs:
            if "\t" in src or "\t" in tgt or "\n" in src or "\n" in tgt:
                raise CorpusError("tab or newline inside a field cannot be written to TSV")
            fh.write(f"{src}\t{tgt}\n")
            n += 1
    return n


@dataclass
class NumericalizedCorpus:
    """Parallel id sequences ready for batching.

    items hold (src_ids, tgt_ids) where src ends with EOS and tgt is the
    bare target sequence; the training batcher adds BOS/EOS shifts.
    """

    items: list[tuple[list[int], list[int]]]
    dropped: int  # pairs over the length budget


def numericalize(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    max_len: int,
) -> NumericalizedCorpus:
    """Map token pairs to ids, dropping pairs that cannot fit max_len.

    The source needs len+1 positions (EOS appended); the target needs
    len+1 positions (BOS prepended for input, EOS appended for output).
    """
    items: list[tuple[list[int], list[int]]] = []
    dropped = 0
    for src_toks, tgt_toks in pairs:
        if len(src_toks) + 1 > max_len or len(tgt_toks) + 1 > max_len:
            dropped += 1
            continue
        if not src_toks or not tgt_toks:
            dropped += 1
            continue
        items.append((src_vocab.encode(src_toks) + [EOS_ID], tgt_vocab.encode(tgt_toks)))
    return NumericalizedCorpus(items=items, dropped=dropped)


# ---------------------------------------------------------------------------
# synthetic tasks


def _symbols(vocab_size: int) -> list[str]:
    if vocab_size < 2:
        raise ValueError("need at least 2 content symbols")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if vocab_size <= len(letters):
        return list(letters[:vocab_size])
    return [f"w{i}" for i in range(vocab_size)]


def successor(symbol: str, symbols: Sequence[str]) -> str:
    """Cyclic next symbol; never maps a symbol to itself for >= 2 symbols."""
    idx = symbols.index(symbol)
    return symbols[(idx + 1) % len(symbols)]


@dataclass
class SyntheticSpec:
    task: str = "copy"
    n_pairs: int = 1000
    len_range: tuple[int, int] = (5, 12)
    vocab_size: int = 8  # content symbols, excluding mode tokens
    d: int | None = None  # dependency distance; periodic_mode only
    seed: int = 0

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        lo, hi = self.len_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad len_range {self.len_range}")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.task == "periodic_mode":
            if self.d is None or self.d < 1:
                raise ValueError("periodic_mode needs dependency distance d >= 1")
        elif self.d is not None:
            raise ValueError(f"d is only meaningful for periodic_mode, got {self.d}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")


def periodic_positions(d: int, src_len: int) -> list[int]:
    """1-based source indices the mode can rewrite: 1, d+2, 2d+3, ...

    Consecutive rewrite positions are d+1 apart, so the previous rewrite
    leaves the window of a k <= d decoder before the next one arrives.
    """
    return list(range(1, src_len + 1, d + 1))


def mode_target_positions(d: int, src_len: int) -> list[int]:
    """0-based target positions whose token depends on the latent mode.

    The target is [mode, t(x_1), ..., t(x_len)], so source index j sits at
    target index j. The mode token itself (index 0) is not included: it is
    unpredictable for every window size and would dilute the metric.
    """
    return periodic_positions(d, src_len)


def _successor_map(symbols: Sequence[str]) -> dict[str, str]:
    """:func:`successor` of every symbol."""
    return {sym: successor(sym, symbols) for sym in symbols}


def _apply_mode(src: Sequence[str], mode: str, d: int, next_symbol: dict[str, str]) -> list[str]:
    """Target for periodic_mode: mode token, then the source with the
    successor map applied at the rewrite positions when the mode says so.
    Source index j sits at target index j."""
    out = [mode, *src]
    if mode == MODE_TOKENS[1]:
        for j in periodic_positions(d, len(src)):
            out[j] = next_symbol[out[j]]
    return out


def generate_pairs(spec: SyntheticSpec) -> list[tuple[list[str], list[str]]]:
    """Sample token pairs for a synthetic task, deterministically by seed."""
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    symbols = _symbols(spec.vocab_size)
    next_symbol = _successor_map(symbols)
    lo, hi = spec.len_range
    pairs: list[tuple[list[str], list[str]]] = []
    for _ in range(spec.n_pairs):
        length = int(rng.integers(lo, hi + 1))
        src = [symbols[i] for i in rng.integers(0, len(symbols), size=length).tolist()]
        if spec.task == "copy":
            tgt = list(src)
        elif spec.task == "reverse":
            tgt = list(reversed(src))
        else:
            mode = MODE_TOKENS[int(rng.integers(0, 2))]
            tgt = _apply_mode(src, mode, spec.d, next_symbol)
        pairs.append((src, tgt))
    return pairs


def split_pairs(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    test_fraction: float,
    seed: int = 0,
) -> tuple[list, list]:
    """Deterministic content-hash split; identical pairs land on one side,
    so duplicates can never straddle train and test."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    train, test = [], []
    for src, tgt in pairs:
        key = f"{seed}\x1f{' '.join(src)}\x1f{' '.join(tgt)}".encode("utf-8")
        bucket = int.from_bytes(hashlib.sha256(key).digest()[:4], "big") / 2**32
        (test if bucket < test_fraction else train).append((list(src), list(tgt)))
    return train, test


def write_sidecar(path: str, spec: SyntheticSpec, extra: dict | None = None) -> None:
    doc = {"generator": asdict(spec)}
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# windowed oracle for the periodic mode task


@dataclass
class OracleReport:
    """Best-possible windowed accuracy on mode-dependent positions.

    ``overall`` averages every mode position; ``beyond_mode_window``
    averages only positions whose window cannot reach the leading mode
    token, which is where the k <= d ceiling of 0.5 is exact.
    """

    k: int
    d: int
    overall: float
    beyond_mode_window: float | None
    n_positions: int
    n_beyond: int


def windowed_oracle_accuracy(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    d: int,
    k: int,
    vocab_size: int,
) -> OracleReport:
    """Exhaustive Bayes-optimal predictor seeing (source, previous k target
    tokens, position).

    For each mode position it enumerates the latent mode, rebuilds the
    window each mode implies, keeps the modes consistent with the observed
    window, and scores 1.0 if they agree on the next token, else 0.5 (two
    equiprobable modes, differing predictions). No shortcut arithmetic:
    ambiguity is established by reconstruction, not by spacing arguments.
    """
    if k < 1:
        raise ValueError("window k must be >= 1")
    next_symbol = _successor_map(_symbols(vocab_size))
    total = 0.0
    n_positions = 0
    beyond_total = 0.0
    n_beyond = 0
    for src, tgt in pairs:
        variants = {m: _apply_mode(src, m, d, next_symbol) for m in MODE_TOKENS}
        for q in mode_target_positions(d, len(src)):
            observed_window = list(tgt[max(0, q - k) : q])
            consistent = [
                m for m, y in variants.items() if y[max(0, q - k) : q] == observed_window
            ]
            predictions = {variants[m][q] for m in consistent}
            acc = 1.0 if len(predictions) == 1 else 0.5
            total += acc
            n_positions += 1
            if q - k >= 1:  # window cannot see the mode token at index 0
                beyond_total += acc
                n_beyond += 1
    if n_positions == 0:
        raise ValueError("corpus has no mode-dependent positions")
    return OracleReport(
        k=k,
        d=d,
        overall=total / n_positions,
        beyond_mode_window=(beyond_total / n_beyond) if n_beyond else None,
        n_positions=n_positions,
        n_beyond=n_beyond,
    )
