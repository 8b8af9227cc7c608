"""Command line interface.

Subcommands: gen-data, train, translate, evaluate, sweep, audit-leakage,
count-ops. Exit codes: 0 success, 1 runtime failure (divergence, audit
violation), 2 usage or configuration error.

A training run is driven by a JSON run config; the run directory is named
by the SHA-256 of the effective config (after --set overrides), so the
same config always lands in the same place and a rerun reproduces the
same artifact bytes.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass
from functools import partial

from .audit import audit_model
from .data import (
    TOKENIZERS,
    CorpusError,
    SyntheticSpec,
    Vocab,
    VocabError,
    detokenize,
    generate_pairs,
    numericalize,
    parse_corpus,
    split_pairs,
    tokenize,
    write_sidecar,
    write_tsv,
)
from .decoding import BATCH_SENTENCES, count_decode_ops, decode_batch
from .evaluation import (
    SweepTemplate,
    bucketed_bleu,
    choose_test_metric,
    corpus_bleu,
    run_order_sweep,
    write_sweep_csv,
)
from .model import (
    EOS_ID,
    CheckpointError,
    ConfigError,
    ModelConfig,
    build_model,
    ensure_valid,
    load_checkpoint,
)
from .tensor import NonFiniteError
from .training import TrainSettings, AdamW, save_training_checkpoint, train


@dataclass
class DataSettings:
    """The run config's data section: one TSV corpus or one synthetic task."""

    train_tsv: str | None = None
    test_tsv: str | None = None
    synthetic: dict | None = None  # SyntheticSpec fields + test_fraction
    tokenizer: str = "whitespace"
    shared_vocab: bool = True
    max_vocab: int | None = None
    min_freq: int = 1


def _section(settings) -> dict:
    return {key: value for key, value in asdict(settings).items() if key != "seed"}


# ModelConfig, DataSettings and TrainSettings hold the defaults and the types.
# The seed is the run's; the vocabulary sizes come from the data, or from the
# model section for commands that read none.
DEFAULT_RUN_CONFIG: dict = {
    "seed": 0,
    "model": {**_section(ModelConfig()), "src_vocab_size": None, "tgt_vocab_size": None},
    "data": asdict(DataSettings()),
    "training": _section(TrainSettings()),
    "decoding": {"beam_size": 1, "alpha": 0.0, "max_new": None},
}
SECTION_TYPES = {
    "model": typing.get_type_hints(ModelConfig) | {"src_vocab_size": int | None, "tgt_vocab_size": int | None},
    "data": typing.get_type_hints(DataSettings),
    "training": typing.get_type_hints(TrainSettings),
}
SYNTHETIC_TYPES = typing.get_type_hints(SyntheticSpec) | {"test_fraction": float | None}


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 2."""


def _matches(value, hint) -> bool:
    """Whether a JSON value has a declared type: an int is never a bool,
    a float may be written as an int, and a tuple is a list of its length."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_matches, value, args))
    if args:  # a union such as int | None
        return any(_matches(value, arg) for arg in args)
    allowed = (int, float) if hint is float else hint
    return isinstance(value, allowed) and (hint is bool or not isinstance(value, bool))


def merge_run_config(overrides: dict) -> dict:
    """Overlay a user config onto the defaults, rejecting unknown keys,
    sections that are not objects and values of the wrong type."""
    errors: list[str] = []
    merged = copy.deepcopy(DEFAULT_RUN_CONFIG)

    def walk(dst: dict, src: dict, types: dict, path: str) -> None:
        for key, value in src.items():
            here = f"{path}.{key}" if path else key
            hint = types.get(key)
            if key not in dst:
                errors.append(f"unknown config key {here!r}")
            elif isinstance(dst[key], dict) and not isinstance(value, dict):
                errors.append(f"config section {here!r} must be an object, got {value!r}")
            elif isinstance(dst[key], dict):
                walk(dst[key], value, SECTION_TYPES.get(key, {}), here)
            elif hint is not None and not _matches(value, hint):
                name = hint.__name__ if isinstance(hint, type) else hint
                errors.append(f"{here} must be {name}, got {value!r}")
            else:
                dst[key] = value

    if not isinstance(overrides, dict):
        raise UsageError("run config must be a JSON object")
    walk(merged, overrides, {}, "")
    if not (_matches(merged["seed"], int) and merged["seed"] >= 0):
        errors.append(f"seed must be a non-negative integer, got {merged['seed']!r}")
    if isinstance(merged["data"]["synthetic"], dict):  # a section with no defaults
        walk(dict.fromkeys(SYNTHETIC_TYPES), merged["data"]["synthetic"], SYNTHETIC_TYPES, "data.synthetic")
    if errors:
        raise UsageError("; ".join(errors))
    return merged


def apply_set_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply --set dotted.path=value pairs; values parse as JSON when they can."""
    cfg = copy.deepcopy(cfg)
    for item in assignments:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise UsageError(f"--set path {key!r} does not exist in the config")
            node = node[part]
        leaf = parts[-1]
        known = isinstance(node, dict) and (
            leaf in node or (parts[:-1] == ["data", "synthetic"] and leaf in SYNTHETIC_TYPES)
        )
        if not known:
            raise UsageError(f"--set path {key!r} does not exist in the config")
        node[leaf] = value
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def load_run_config(path: str, set_args: list[str] | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    merged = merge_run_config(user)
    if set_args:
        merged = apply_set_overrides(merged, set_args)
        merged = merge_run_config(merged)  # re-validate after overrides
    return merged


def _model_config_from_run(
    cfg: dict, src_vocab: int | None = None, tgt_vocab: int | None = None
) -> ModelConfig:
    """The run's validated model config, seeded from the run. Vocabulary
    sizes come from the corpus when given; commands that read no corpus
    take the model section's, or 16 where it gives none."""
    section = dict(cfg["model"], seed=cfg["seed"])
    for key, size in (("src_vocab_size", src_vocab), ("tgt_vocab_size", tgt_vocab)):
        if size is not None:
            section[key] = size
        elif section[key] is None:
            section[key] = 16
    try:
        return ensure_valid(ModelConfig.from_dict(section))
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def _training_settings_from_run(cfg: dict) -> TrainSettings:
    try:
        settings = TrainSettings.from_dict(dict(cfg["training"], seed=cfg["seed"]))
        settings.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if settings.max_tokens_per_batch < 2 or settings.log_every < 1 or not settings.eps > 0:
        raise UsageError("training needs max_tokens_per_batch >= 2, log_every >= 1 and eps > 0")
    return settings


def _synthetic_spec(section: dict) -> tuple[SyntheticSpec, float]:
    args = {k: tuple(v) if k == "len_range" else v for k, v in section.items() if k != "test_fraction"}
    try:
        spec = SyntheticSpec(**args)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad data.synthetic: {exc}") from exc
    if spec.seed < 0:  # the generator's PCG64 takes no negative seed
        raise UsageError(f"bad data.synthetic: seed must be >= 0, got {spec.seed}")
    frac = section.get("test_fraction") or 0.0
    if not 0.0 <= frac < 1.0:
        raise UsageError("data.synthetic.test_fraction must be in [0, 1)")
    return spec, frac


def _prepare_run_data(cfg: dict):
    """Returns (train_pairs, test_pairs, src_vocab, tgt_vocab) token-level."""
    data = cfg["data"]
    tokenizer = data["tokenizer"]
    if tokenizer not in TOKENIZERS:
        raise UsageError(f"data.tokenizer must be one of {TOKENIZERS}, got {tokenizer!r}")
    syn = data["synthetic"]
    if (syn is None) == (data["train_tsv"] is None):
        raise UsageError("exactly one of data.train_tsv or data.synthetic is required")
    if syn is not None and data["test_tsv"] is not None:
        raise UsageError("data.test_tsv cannot be used with data.synthetic (use its test_fraction)")

    def read_tsv(key: str) -> list:
        try:
            raw = parse_corpus(data[key])
        except OSError as exc:
            raise _file_error(f"data.{key}", data[key], exc) from exc
        return [(tokenize(s, tokenizer), tokenize(t, tokenizer)) for s, t in raw]

    if syn is not None:
        spec, frac = _synthetic_spec(syn)
        train_pairs, test_pairs = split_pairs(generate_pairs(spec), frac, seed=spec.seed)
    else:
        train_pairs = read_tsv("train_tsv")
        test_pairs = read_tsv("test_tsv") if data["test_tsv"] else []
    if not train_pairs:
        raise UsageError("training corpus is empty")
    build = partial(Vocab.build, max_size=data["max_vocab"], min_freq=data["min_freq"])
    try:
        if data["shared_vocab"]:
            src_vocab = tgt_vocab = build([side for pair in train_pairs for side in pair])
        else:
            src_vocab, tgt_vocab = build([s for s, _ in train_pairs]), build([t for _, t in train_pairs])
    except ValueError as exc:
        raise UsageError(f"data.max_vocab: {exc}") from exc
    return train_pairs, test_pairs, src_vocab, tgt_vocab


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} must be comma-separated integers, got {text!r}") from exc


def _file_error(flag: str, path: str, exc: Exception) -> UsageError:
    if isinstance(exc, UnicodeDecodeError):
        return UsageError(f"{flag} {path} is not valid UTF-8")
    return UsageError(f"{flag} {path} cannot be opened: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# subcommands


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


def cmd_gen_data(args) -> int:
    _at_least("--seed", args.seed, 0)
    spec = SyntheticSpec(
        task=args.task,
        n_pairs=args.n,
        len_range=(args.len_min, args.len_max),
        vocab_size=args.vocab_size,
        d=args.d,
        seed=args.seed,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError("--test-fraction must be in [0, 1)")
    pairs = generate_pairs(spec)
    train_pairs, test_pairs = split_pairs(pairs, args.test_fraction, seed=spec.seed)
    out = args.out
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    n_train = write_tsv(f"{out}.train.tsv", ((" ".join(s), " ".join(t)) for s, t in train_pairs))
    files = {"train_tsv": f"{out}.train.tsv", "n_train": n_train}
    if test_pairs:
        n_test = write_tsv(f"{out}.test.tsv", ((" ".join(s), " ".join(t)) for s, t in test_pairs))
        files.update(test_tsv=f"{out}.test.tsv", n_test=n_test)
    write_sidecar(f"{out}.json", spec, {"split": {"test_fraction": args.test_fraction, **files}})
    print(json.dumps({"sidecar": f"{out}.json", **files}))
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    train_pairs, test_pairs, src_vocab, tgt_vocab = _prepare_run_data(cfg)
    model_cfg = _model_config_from_run(cfg, len(src_vocab), len(tgt_vocab))
    train_num = numericalize(train_pairs, src_vocab, tgt_vocab, model_cfg.max_len)
    if not train_num.items:
        raise UsageError("every training pair exceeds max_len")
    test_num = numericalize(test_pairs, src_vocab, tgt_vocab, model_cfg.max_len)
    syn = cfg["data"]["synthetic"] or {}
    try:
        metric, score = choose_test_metric(
            syn.get("task"), syn.get("d"), test_pairs, test_num, model_cfg.max_len, limit=200
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    settings = _training_settings_from_run(cfg)
    # the run directory is made only once the config and data are usable
    run_dir = os.path.join(args.out_root, config_hash(cfg))
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    model = build_model(model_cfg)
    opt = AdamW.from_settings(settings)
    history = train(
        model, train_num.items, settings, os.path.join(run_dir, "train_log.jsonl"), opt=opt
    )
    meta = {
        "tokenizer": cfg["data"]["tokenizer"],
        "src_vocab": src_vocab.to_dict(),
        "tgt_vocab": tgt_vocab.to_dict(),
        "run_config_hash": config_hash(cfg),
    }
    ckpt_path = os.path.join(run_dir, "checkpoint.mnmt")
    save_training_checkpoint(ckpt_path, model, opt, meta=meta)

    summary = {
        "run_dir": run_dir,
        "final_loss": history.final_loss,
        "steps": settings.steps,
        "n_train_pairs": len(train_num.items),
        "dropped_pairs": train_num.dropped,
    }
    if test_num.items:
        res = score(model)
        summary["test_metric"] = {metric: res.accuracy, "n": res.n_scored}
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _load_translator(path: str):
    loaded = load_checkpoint(path)
    model, meta = loaded.model, loaded.meta
    if "src_vocab" not in meta or "tgt_vocab" not in meta:
        raise UsageError(f"{path} carries no vocabulary; was it saved by `train`?")
    try:
        src_vocab, tgt_vocab = Vocab.from_dict(meta["src_vocab"]), Vocab.from_dict(meta["tgt_vocab"])
    except VocabError as exc:
        raise CheckpointError(f"{path}: bad vocabulary in metadata: {exc}") from exc
    return model, src_vocab, tgt_vocab, meta.get("tokenizer", "whitespace")


def cmd_translate(args) -> int:
    if args.beam < 1:
        raise UsageError(f"--beam must be >= 1, got {args.beam}")
    if args.alpha < 0:
        raise UsageError(f"--alpha must be >= 0, got {args.alpha}")
    if args.max_new is not None and args.max_new < 0:
        raise UsageError(f"--max-new must be >= 0, got {args.max_new}")
    model, src_vocab, tgt_vocab, tokenizer = _load_translator(args.checkpoint)
    # standard input is decoded as strictly as a file: Python's own stdin
    # may turn bad bytes into surrogates, which would be looked up as UNK
    stdin = args.input == "-"
    try:
        if stdin:
            fin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        else:
            fin = open(args.input, "r", encoding="utf-8")
    except OSError as exc:
        raise _file_error("--input", args.input, exc) from exc

    def close_input() -> None:
        if stdin:
            fin.detach()  # leaves sys.stdin open
        else:
            fin.close()

    try:
        fout = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        close_input()
        raise _file_error("--output", args.output, exc) from exc

    def flush(lines: list[str], first: int) -> None:
        sources = []
        for line in lines:
            if line:
                ids = src_vocab.encode(tokenize(line, tokenizer))[: model.config.max_len - 1]
                sources.append(ids + [EOS_ID])
        start = time.perf_counter()
        results = decode_batch(model, sources, args.beam, args.alpha, args.max_new)
        # one decode step emits one token per sentence, EOS included
        emitted = max(sum(out.stats["steps"] for out in results), 1)
        ms_per_token = (time.perf_counter() - start) * 1e3 / emitted
        decoded = iter(results)
        for i, line in enumerate(lines, start=first):
            if not line:
                fout.write("\n")
                continue
            out = next(decoded)
            fout.write(detokenize(tgt_vocab.decode(out.tokens), tokenizer) + "\n")
            if args.stats:
                record = {"line": i, **out.stats, "ms_per_token": ms_per_token}
                print(json.dumps(record, sort_keys=True), file=sys.stderr)

    try:
        lines: list[str] = []
        first = 1
        for line in fin:
            lines.append(line.rstrip("\n"))
            if len(lines) == BATCH_SENTENCES:
                flush(lines, first)
                first += len(lines)
                lines = []
        flush(lines, first)
    except UnicodeDecodeError as exc:
        raise _file_error("--input", args.input, exc) from exc
    finally:
        close_input()
        if fout is not sys.stdout:
            fout.close()
    return 0


def _read_lines(flag: str, path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(flag, path, exc) from exc


def cmd_evaluate(args) -> int:
    hyps = [tokenize(line, args.tokenizer) for line in _read_lines("--hyp", args.hyp)]
    refs = [tokenize(line, args.tokenizer) for line in _read_lines("--ref", args.ref)]
    if len(hyps) != len(refs):
        raise UsageError(f"{args.hyp} has {len(hyps)} lines, {args.ref} has {len(refs)}")
    report: dict = {"bleu": corpus_bleu(hyps, refs), "n_pairs": len(hyps)}
    if args.buckets:
        try:
            buckets = bucketed_bleu(hyps, refs, [int(x) for x in args.buckets.split(",")])
        except ValueError as exc:
            raise UsageError(f"--buckets {args.buckets}: {exc}") from exc
        report["buckets"] = [asdict(b) for b in buckets]
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args.set or [])
    data = cfg["data"]
    if data["synthetic"] is None:
        raise UsageError("sweep requires a synthetic data section")
    keys = ("train_tsv", "test_tsv", "max_vocab", "min_freq", "shared_vocab")
    ignored = [f"data.{k}" for k in keys if data[k] != DEFAULT_RUN_CONFIG["data"][k]]
    if ignored:
        raise UsageError(
            f"sweep cannot honour {', '.join(ignored)}: each cell builds one shared vocabulary "
            "from data.synthetic, with no size or frequency limit"
        )
    spec, frac = _synthetic_spec(data["synthetic"])
    template = SweepTemplate(
        data=spec,
        # each cell sets the vocabulary sizes and seed; errors fail the cell
        model=ModelConfig.from_dict(cfg["model"]),
        training=_training_settings_from_run(cfg),
        test_fraction=frac if frac > 0 else 0.2,
        split_seed=spec.seed,
        include_reference_variants=not args.no_reference,
    )
    k_list = _int_list("--k-list", args.k_list)
    seeds = _int_list("--seeds", args.seeds)
    rows = run_order_sweep(template, k_list, seeds, jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    failed = [r for r in rows if r["status"] != "ok"]
    print(json.dumps({"rows": len(rows), "failed": len(failed), "csv": args.out}))
    return 1 if failed else 0


def cmd_audit_leakage(args) -> int:
    if bool(args.checkpoint) == bool(args.config):
        raise UsageError("audit-leakage needs exactly one of --checkpoint or --config")
    _at_least("--sentences", args.sentences, 0)
    _at_least("--src-len", args.src_len, 0)
    _at_least("--tgt-len", args.tgt_len, 0)
    _at_least("--seed", args.seed, 0)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint).model
    else:
        cfg = load_run_config(args.config, args.set or [])
        model = build_model(_model_config_from_run(cfg))
    # a sentence and its BOS or EOS must fit the model's positions
    max_len = model.config.max_len
    for flag, length in (("--src-len", args.src_len), ("--tgt-len", args.tgt_len)):
        if length + 1 > max_len:
            raise UsageError(f"{flag} {length} plus BOS/EOS exceeds the model's max_len {max_len}")
    report = audit_model(
        model, n_sentences=args.sentences, src_len=args.src_len, tgt_len=args.tgt_len, seed=args.seed
    )
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.passed else 1


def cmd_count_ops(args) -> int:
    if bool(args.checkpoint) == bool(args.config):
        raise UsageError("count-ops needs exactly one of --checkpoint or --config")
    _at_least("--n", args.n, 1)
    if args.checkpoint:
        cfg = load_checkpoint(args.checkpoint).model.config
    else:
        cfg = _model_config_from_run(load_run_config(args.config, args.set or []))
    print(json.dumps(count_decode_ops(cfg, args.n), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovnmt",
        description="Train, decode, and audit window-constrained translation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic parallel corpus")
    p.add_argument("--task", required=True, choices=("copy", "reverse", "periodic_mode"))
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len-min", type=int, default=5)
    p.add_argument("--len-max", type=int, default=12)
    p.add_argument("--vocab-size", type=int, default=8)
    p.add_argument("--d", type=int, default=None, help="dependency distance (periodic_mode)")
    p.add_argument("--test-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.add_argument("--out-root", default="runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="translate lines with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--max-new", type=int, default=None)
    p.add_argument(
        "--stats",
        action="store_true",
        help="print one JSON record per sentence to stderr: decode steps, decoder "
        "self-attention scores computed, peak static floats held per hypothesis, and "
        "the wall milliseconds per emitted token of the sentence's batch",
    )
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU of hypothesis vs reference files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--tokenizer", default="whitespace", choices=("whitespace", "char"))
    p.add_argument("--buckets", default=None, help="comma-separated length bucket edges")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train across window widths and tabulate a metric")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.add_argument("--k-list", required=True, help="comma-separated window widths")
    p.add_argument("--seeds", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-reference", action="store_true", help="skip AT/TAT reference rows")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit-leakage", help="perturbation audit of the context window")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.add_argument("--sentences", type=int, default=3)
    p.add_argument("--src-len", type=int, default=6)
    p.add_argument("--tgt-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here too")
    p.set_defaults(func=cmd_audit_leakage)

    p = sub.add_parser("count-ops", help="closed-form decode cost report")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    p.add_argument("--n", type=int, required=True, help="generated length")
    p.set_defaults(func=cmd_count_ops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, CorpusError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
