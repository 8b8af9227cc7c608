"""End-to-end command line tests, run in-process through main(argv).

Covers artifact layout, rerun reproducibility (the run directory is the
config hash, so identical configs must yield identical bytes), exit-code
mapping (0 ok / 1 runtime failure / 2 usage), and the JSON the commands
print on stdout.
"""

import copy
import csv
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import markovnmt
from markovnmt.cli import (
    DEFAULT_RUN_CONFIG,
    SYNTHETIC_TYPES,
    apply_set_overrides,
    config_hash,
    main,
    merge_run_config,
)
from markovnmt.cli import UsageError
from markovnmt.data import parse_corpus
from markovnmt.evaluation import SWEEP_COLUMNS


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_config(path, **sections):
    doc = {
        "seed": 0,
        "model": {
            "variant": "MAT",
            "k": 2,
            "enc_layers": 1,
            "dec_layers": 1,
            "heads": 2,
            "d_model": 16,
            "d_ff": 32,
            "max_len": 12,
            "dropout": 0.0,
        },
        "data": {
            "synthetic": {
                "task": "copy",
                "n_pairs": 30,
                "len_range": [3, 5],
                "vocab_size": 6,
                "seed": 0,
                "test_fraction": 0.25,
            }
        },
        "training": {
            "steps": 5,
            "max_tokens_per_batch": 64,
            "warmup": 2,
            "log_every": 2,
            "label_smoothing": 0.0,
            "weight_decay": 0.0,
        },
    }
    for key, value in sections.items():
        doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config plumbing


def test_merge_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown config key 'modle'"):
        merge_run_config({"modle": {}})
    with pytest.raises(UsageError, match="training.stepz"):
        merge_run_config({"training": {"stepz": 3}})
    with pytest.raises(UsageError, match="unknown config key 'data.synthetic.pairs'"):
        merge_run_config({"data": {"synthetic": {"task": "copy", "pairs": 3}}})


@pytest.mark.parametrize(
    "commands, sections, sets, named",
    [
        (["audit-leakage", "count-ops"], {"model": 5}, [], "config section 'model' must be an object"),
        (["count-ops"], {}, ["model.k=\"3\""], "model.k must be int | None, got '3'"),
        (["count-ops"], {}, ["model.d_model=null"], "model.d_model must be int, got None"),
        (["audit-leakage"], {"seed": "x"}, [], "seed must be a non-negative integer, got 'x'"),
        (["audit-leakage", "count-ops", "train"], {"data": 7}, [], "config section 'data' must be an object"),
        (["train"], {}, ["data.synthetic.len_range=5"], "data.synthetic.len_range must be tuple[int, int]"),
        (["train"], {}, ["data.max_vocab=x"], "data.max_vocab must be int | None, got 'x'"),
        (["train"], {}, ["data.synthetic.test_fraction=a"], "data.synthetic.test_fraction must be float | None"),
        (["train"], {}, ["data.synthetic.seed=-1"], "bad data.synthetic: seed must be >= 0, got -1"),
        (["train"], {"training": []}, [], "config section 'training' must be an object"),
        (["train"], {"decoding": 3}, [], "config section 'decoding' must be an object"),
    ],
)
def test_wrong_typed_config_values_are_usage_errors(tmp_path, capsys, commands, sections, sets, named):
    cfg = _write_config(tmp_path / "run.json", **sections)
    extra = {"count-ops": ["--n", "5"], "train": ["--out-root", str(tmp_path / "runs")]}
    for command in commands:
        argv = [command, "--config", cfg, *extra.get(command, [])]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, (command, err)
    assert not (tmp_path / "runs").exists()


def test_set_overrides_parse_json_values():
    cfg = merge_run_config({})
    out = apply_set_overrides(cfg, ["training.steps=12", "model.k=null", "model.variant=AT"])
    assert out["training"]["steps"] == 12
    assert out["model"]["k"] is None
    assert out["model"]["variant"] == "AT"  # bare word stays a string
    assert cfg["training"]["steps"] == DEFAULT_RUN_CONFIG["training"]["steps"]  # copy, not mutation
    for bad in ["training.steps", "nope.steps=1", "training.stepz=1"]:
        with pytest.raises(UsageError):
            apply_set_overrides(cfg, [bad])


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": {"z": 2}}
    b = {"y": {"z": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 1, "y": {"z": 3}})


def test_default_run_config_hash_is_pinned():
    # the model and training defaults come from ModelConfig and TrainSettings;
    # a drift there would move every run directory
    assert config_hash(merge_run_config({})) == "adec74bef143"


def test_package_exports_resolve():
    names = markovnmt.__all__
    assert names == sorted(set(names))
    assert all(hasattr(markovnmt, name) for name in names)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_corpus_and_sidecar(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main([
        "gen-data", "--task", "copy", "--n", "30", "--out", str(out),
        "--test-fraction", "0.2", "--len-min", "3", "--len-max", "5",
        "--vocab-size", "6",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_train"] + doc["n_test"] == 30
    train_rows = parse_corpus(doc["train_tsv"])
    test_rows = parse_corpus(doc["test_tsv"])
    assert len(train_rows) == doc["n_train"] and len(test_rows) == doc["n_test"]
    src, tgt = train_rows[0]
    assert src == tgt  # copy task
    sidecar = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
    assert sidecar["generator"]["task"] == "copy"
    assert sidecar["split"]["test_fraction"] == 0.2


def test_gen_data_usage_errors(tmp_path, capsys):
    rc = main([
        "gen-data", "--task", "periodic_mode", "--n", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main([
        "gen-data", "--task", "copy", "--n", "5", "--out", str(tmp_path / "x"),
        "--test-fraction", "1.5",
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# train / translate


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg_path = _write_config(tmp / "run.json")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["train", "--config", cfg_path, "--out-root", str(tmp / "runs")])
    assert rc == 0
    summary = json.loads(buf.getvalue())
    return tmp, cfg_path, summary


def test_train_writes_run_artifacts(trained_run):
    tmp, cfg_path, summary = trained_run
    run_dir = summary["run_dir"]
    for name in ("config.json", "train_log.jsonl", "checkpoint.mnmt", "summary.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    on_disk = json.loads(_read(os.path.join(run_dir, "summary.json")))
    assert on_disk == summary
    assert summary["n_train_pairs"] > 0 and summary["dropped_pairs"] == 0
    assert "sequence_accuracy" in summary["test_metric"]
    log_lines = _read(os.path.join(run_dir, "train_log.jsonl")).splitlines()
    assert all({"step", "loss", "lr"} <= set(json.loads(l)) for l in log_lines)


def test_rerun_reproduces_identical_bytes(trained_run, capsys):
    tmp, cfg_path, summary = trained_run
    run_dir = summary["run_dir"]
    ckpt = os.path.join(run_dir, "checkpoint.mnmt")
    before = _read_bytes(ckpt)
    rc = main(["train", "--config", cfg_path, "--out-root", str(tmp / "runs")])
    assert rc == 0
    again = json.loads(capsys.readouterr().out)
    assert again["run_dir"] == run_dir  # same config -> same hash -> same dir
    assert _read_bytes(ckpt) == before
    assert again == summary


def test_set_override_changes_run_dir(trained_run, capsys):
    tmp, cfg_path, summary = trained_run
    rc = main([
        "train", "--config", cfg_path, "--out-root", str(tmp / "runs"),
        "--set", "training.steps=6",
    ])
    assert rc == 0
    moved = json.loads(capsys.readouterr().out)
    assert moved["run_dir"] != summary["run_dir"]
    saved = json.loads(_read(os.path.join(moved["run_dir"], "config.json")))
    assert saved["training"]["steps"] == 6


def test_translate_file_roundtrip(trained_run, tmp_path):
    tmp, cfg_path, summary = trained_run
    ckpt = os.path.join(summary["run_dir"], "checkpoint.mnmt")
    sidecar = json.loads(_read(os.path.join(summary["run_dir"], "config.json")))
    assert sidecar["data"]["synthetic"]["task"] == "copy"
    src_file = tmp_path / "src.txt"
    # a source longer than max_len=12 is clipped, an unseen word becomes UNK
    long_line = " ".join(["t4", "t5"] * 20)
    src_file.write_text(f"t4 t5 t4\n\nt5 t5\n{long_line}\nt4 zebra t5\n", encoding="utf-8")
    out_file = tmp_path / "hyp.txt"
    rc = main([
        "translate", "--checkpoint", ckpt,
        "--input", str(src_file), "--output", str(out_file),
    ])
    assert rc == 0
    lines = out_file.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 6 and lines[5] == ""  # five inputs + trailing newline
    assert lines[1] == ""  # blank line passes through
    rc = main([
        "translate", "--checkpoint", ckpt, "--input", str(src_file),
        "--output", str(tmp_path / "hyp_beam.txt"), "--beam", "2", "--alpha", "0.6",
    ])
    assert rc == 0


def test_translate_stats_report_constant_window_state(trained_run, tmp_path, capsys):
    """--stats prints one record per sentence; the MAT(k) state holds
    k * d_model floats once k tokens are in."""
    from markovnmt.decoding import count_decode_ops
    from markovnmt.model import load_checkpoint, save_checkpoint

    tmp, cfg_path, summary = trained_run
    loaded = load_checkpoint(os.path.join(summary["run_dir"], "checkpoint.mnmt"))
    model = loaded.model
    # all-zero logits: PAD, the lowest id, wins every step and no sentence ends
    model.params.dec[-1].ln_ffn.gain.data[:] = 0.0
    ckpt = str(tmp_path / "no_eos.mnmt")
    save_checkpoint(ckpt, model, meta=loaded.meta)
    src_file = tmp_path / "src.txt"
    src_file.write_text("t4 t5 t4\n\nt5\n", encoding="utf-8")
    cfg = model.config
    for beam in ("1", "2"):
        rc = main([
            "translate", "--checkpoint", ckpt, "--input", str(src_file),
            "--output", str(tmp_path / "hyp.txt"), "--max-new", "7", "--beam", beam, "--stats",
        ])
        assert rc == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [r["line"] for r in records] == [1, 3]
        for r in records:
            assert r["steps"] == 7
            assert r["resident_floats"] == cfg.k * cfg.d_model
            assert math.isfinite(r["ms_per_token"]) and r["ms_per_token"] > 0
            if beam == "1":
                assert r["self_attn_scores"] == count_decode_ops(cfg, 7)["total_self_attn_scores"]
    assert main(["translate", "--checkpoint", ckpt, "--input", str(src_file), "--beam", "0"]) == 2
    corrupt = tmp_path / "corrupt.mnmt"
    corrupt.write_bytes(_read_bytes(ckpt)[:-4])
    assert main(["translate", "--checkpoint", str(corrupt), "--input", str(src_file)]) == 2
    assert "payload" in capsys.readouterr().err


@pytest.mark.parametrize("itos", [["a", "a"], [1, 2]])
def test_translate_rejects_malformed_checkpoint_vocab(trained_run, tmp_path, capsys, itos):
    from markovnmt.model import load_checkpoint, save_checkpoint

    tmp, cfg_path, summary = trained_run
    loaded = load_checkpoint(os.path.join(summary["run_dir"], "checkpoint.mnmt"))
    reserved = loaded.meta["src_vocab"]["itos"][:4]
    meta = dict(loaded.meta, src_vocab={"itos": reserved + itos})
    ckpt = str(tmp_path / "bad_vocab.mnmt")
    save_checkpoint(ckpt, loaded.model, meta=meta)
    src_file = tmp_path / "src.txt"
    src_file.write_text("t4 t5\n", encoding="utf-8")
    assert main(["translate", "--checkpoint", ckpt, "--input", str(src_file)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad vocabulary in metadata" in err


def test_translate_reads_stdin_as_strictly_as_a_file(trained_run, tmp_path, monkeypatch, capsys):
    """Standard input gives the translation a file gives, and invalid UTF-8
    on it is the usage error a file gives, even where Python's own stdin
    would let bad bytes through as surrogates."""
    import io

    tmp, cfg_path, summary = trained_run
    ckpt = os.path.join(summary["run_dir"], "checkpoint.mnmt")
    for raw in (b"t4 t5 t4\n\nt5 t5\n", b"t4 \xff t5\n"):
        src_file = tmp_path / "src.txt"
        src_file.write_bytes(raw)
        from_file = main(["translate", "--checkpoint", ckpt, "--input", str(src_file)])
        file_out, file_err = capsys.readouterr()
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["translate", "--checkpoint", ckpt, "--input", "-"]) == from_file
        out, err = capsys.readouterr()
        assert not stdin.closed
        assert out == file_out
        assert err == file_err.replace(str(src_file), "-")
    assert from_file == 2 and err == "error: --input - is not valid UTF-8\n"


@pytest.mark.parametrize("command", [["audit-leakage"], ["count-ops", "--n", "5"]])
@pytest.mark.parametrize("key", ["src_vocab_size", "tgt_vocab_size"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_bad_model_vocabulary_size_is_a_usage_error(tmp_path, capsys, command, key, size):
    cfg = _write_config(tmp_path / "run.json")
    assert main(command + ["--config", cfg, "--set", f"model.{key}={size}"]) == 2
    assert f"{key} must exceed the 4 reserved ids" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["translate", "--input", "-"],
        ["count-ops", "--n", "5"],
        ["audit-leakage"],
    ],
)
def test_missing_checkpoint_is_a_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "nope.mnmt")
    assert main(argv + ["--checkpoint", missing]) == 2
    assert f"error: cannot read checkpoint {missing}" in capsys.readouterr().err


def test_train_usage_errors(tmp_path, capsys):
    missing = main(["train", "--config", str(tmp_path / "nope.json")])
    assert missing == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(bad_json)]) == 2
    cfg = _write_config(tmp_path / "run.json")
    assert main(["train", "--config", cfg, "--set", "model.heads=3"]) == 2
    assert main(["train", "--config", cfg, "--set", "nope=1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["train", "--config", cfg, "--set", "model.max_len=3"]) == 2
    assert "every training pair exceeds max_len" in capsys.readouterr().err
    tsv = tmp_path / "train.tsv"
    tsv.write_bytes(b"a b\ta b\n\xff\xfe\tb\n")
    cfg = _write_config(tmp_path / "tsv.json", data={"train_tsv": str(tsv)})
    assert main(["train", "--config", cfg, "--out-root", str(tmp_path / "runs")]) == 2
    assert "line 2: invalid UTF-8" in capsys.readouterr().err


def test_train_rejects_dropped_test_pairs_before_training(tmp_path, capsys):
    # the mode positions are indexed by test-pair order, so a test pair too
    # long for max_len would misalign the periodic_mode metric
    cfg = _write_config(
        tmp_path / "run.json",
        data={
            "synthetic": {
                "task": "periodic_mode", "n_pairs": 30, "len_range": [6, 20], "vocab_size": 6,
                "d": 2, "seed": 0, "test_fraction": 0.3,
            }
        },
    )
    rc = main(["train", "--config", cfg, "--out-root", str(tmp_path / "runs"), "--set", "model.max_len=16"])
    assert rc == 2
    assert "exceed max_len=16" in capsys.readouterr().err
    assert not list((tmp_path / "runs").glob("*/checkpoint.mnmt"))


@pytest.mark.parametrize(
    "command, sets, named",
    [
        ("sweep", ["data.max_vocab=5"], ["data.max_vocab"]),
        ("sweep", ["data.shared_vocab=false", "data.train_tsv=/nonexistent.tsv"],
         ["data.train_tsv", "data.shared_vocab"]),
        ("sweep", ["data.min_freq=2", "data.test_tsv=test.tsv"], ["data.test_tsv", "data.min_freq"]),
        ("train", ["data.test_tsv=test.tsv"], ["data.test_tsv"]),
    ],
)
def test_data_keys_a_command_cannot_honour_are_usage_errors(tmp_path, capsys, command, sets, named):
    cfg = _write_config(tmp_path / "run.json")
    if command == "sweep":
        extra = ["--k-list", "1", "--no-reference", "--out", str(tmp_path / "sweep.csv")]
    else:
        extra = ["--out-root", str(tmp_path / "runs")]
    argv = [command, "--config", cfg, *extra]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(key in err for key in named)
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["translate", "--checkpoint", "{ckpt}", "--input", "{missing}"], "--input {missing}"),
        (["translate", "--checkpoint", "{ckpt}", "--input", "{bad}", "--output", "{out}"],
         "--input {bad} is not valid UTF-8"),
        (["evaluate", "--hyp", "{missing}", "--ref", "{good}"], "--hyp {missing}"),
        (["evaluate", "--hyp", "{bad}", "--ref", "{good}"], "--hyp {bad} is not valid UTF-8"),
        (["evaluate", "--hyp", "{good}", "--ref", "{missing}"], "--ref {missing}"),
        (["evaluate", "--hyp", "{good}", "--ref", "{bad}"], "--ref {bad} is not valid UTF-8"),
        (["evaluate", "--hyp", "{good}", "--ref", "{good}", "--buckets", "3,x"], "--buckets"),
        (["evaluate", "--hyp", "{good}", "--ref", "{good}", "--buckets", "3,2"], "--buckets"),
        (["sweep", "--config", "{cfg}", "--k-list", "2,x", "--out", "{out}"], "--k-list"),
        (["sweep", "--config", "{cfg}", "--k-list", "2", "--seeds", "0.5", "--out", "{out}"], "--seeds"),
    ],
)
def test_bad_file_or_list_argument_is_a_usage_error(trained_run, tmp_path, capsys, argv, named):
    tmp, cfg_path, summary = trained_run
    good = tmp_path / "good.txt"
    good.write_text("t4 t5\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"t4 \xff t5\n")
    paths = {
        "ckpt": os.path.join(summary["run_dir"], "checkpoint.mnmt"),
        "cfg": cfg_path,
        "good": str(good),
        "bad": str(bad),
        "missing": str(tmp_path / "missing.txt"),
        "out": str(tmp_path / "out.txt"),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named.format(**paths) in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/inf inside the doomed forward
def test_train_divergence_is_exit_code_one(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    rc = main([
        "train", "--config", cfg, "--out-root", str(tmp_path / "runs"),
        "--set", "training.base_lr=1e8",
    ])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_identity_and_buckets(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d e\nw x y z\n", encoding="utf-8")
    ref.write_text("a b c d e\nw x y z\n", encoding="utf-8")
    rc = main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--buckets", "10"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bleu"] == 1.0 and doc["n_pairs"] == 2
    assert [b["count"] for b in doc["buckets"]] == [2, 0]
    assert doc["buckets"][1]["hi"] is None


def test_evaluate_line_count_mismatch(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--config", cfg, "--k-list", "1,2", "--seeds", "0",
        "--no-reference", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 2 and doc["failed"] == 0
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(SWEEP_COLUMNS)
        rows = list(reader)
    assert [r["k"] for r in rows] == ["1", "2"]
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_failed_cells_exit_one(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--config", cfg, "--k-list", "1", "--seeds", "0",
        "--no-reference", "--out", str(out), "--set", "model.heads=3",
    ])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 1
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"].startswith("failed:")


def test_sweep_requires_synthetic_data(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    tsv = tmp_path / "train.tsv"
    tsv.write_text("a b\ta b\n", encoding="utf-8")
    _write_config(cfg_path, data={"train_tsv": str(tsv)})
    rc = main([
        "sweep", "--config", str(cfg_path), "--k-list", "1",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# audit-leakage / count-ops


def test_audit_leakage_passes_for_windowed_model(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    report_path = tmp_path / "audit.json"
    rc = main([
        "audit-leakage", "--config", cfg, "--sentences", "1",
        "--src-len", "4", "--tgt-len", "5", "--out", str(report_path),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["max_out_of_window_delta"] == 0.0
    assert json.loads(report_path.read_text(encoding="utf-8")) == doc


def test_audit_leakage_flags_contextual_banded(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    rc = main([
        "audit-leakage", "--config", cfg, "--sentences", "1",
        "--src-len", "4", "--tgt-len", "6",
        "--set", "model.transparent=false", "--set", "model.dec_layers=2",
    ])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["violations"]


def test_audit_leakage_needs_exactly_one_source(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    assert main(["audit-leakage"]) == 2
    assert main(["audit-leakage", "--config", cfg, "--checkpoint", "x.mnmt"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["audit-leakage", "--seed", "-1"], "--seed"),
        (["gen-data", "--task", "copy", "--n", "5", "--seed", "-1"], "--seed"),
        (["audit-leakage", "--tgt-len", "-3"], "--tgt-len"),
        (["audit-leakage", "--set", "model.max_len=3"], "--src-len"),
        (["count-ops", "--n", "0"], "--n"),
    ],
    ids=["audit-seed", "gen-data-seed", "audit-tgt-len", "audit-max-len", "count-ops-n"],
)
def test_bad_integer_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    """An integer flag out of range exits 2 with a message naming it,
    not with a traceback from deep inside the command."""
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}", encoding="utf-8")
    where = ["--out", str(tmp_path / "x")] if argv[0] == "gen-data" else ["--config", str(cfg)]
    assert main(argv + where) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


def test_count_ops_reports_closed_form(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.json")
    rc = main([
        "count-ops", "--config", cfg, "--n", "25", "--set", "model.k=5",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["self_attn_scores"] == 115
    assert doc["variant"] == "MAT" and doc["k"] == 5 and doc["n"] == 25
    rc = main([
        "count-ops", "--config", cfg, "--n", "25", "--set", "model.variant=AT",
        "--set", "model.k=null",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["self_attn_scores"] == 325


@pytest.mark.parametrize(
    "rewrite, named",
    [
        (lambda header, payload: ({**header, "version": 1}, payload), "unsupported checkpoint version 1"),
        (
            lambda header, payload: ({**header, "tensors": [], "extras": [], "payload_bytes": 0}, b""),
            "config needs 9600 bytes of parameters, payload holds 0",
        ),
    ],
    ids=["version-1", "header-only"],
)
def test_count_ops_rejects_old_or_empty_checkpoints(tmp_path, capsys, rewrite, named):
    from markovnmt.model import ModelConfig, build_model, save_checkpoint

    path = tmp_path / "m.mnmt"
    save_checkpoint(path, build_model(ModelConfig(d_model=8, heads=2, d_ff=8, max_len=8)))
    line, payload = _read_bytes(path).split(b"\n", 1)
    header, payload = rewrite(json.loads(line), payload)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_bytes(text.encode("utf-8") + payload)
    assert main(["count-ops", "--checkpoint", str(path), "--n", "5"]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"


def test_count_ops_from_checkpoint(trained_run, capsys):
    tmp, cfg_path, summary = trained_run
    ckpt = os.path.join(summary["run_dir"], "checkpoint.mnmt")
    rc = main(["count-ops", "--checkpoint", ckpt, "--n", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "MAT" and doc["k"] == 2
    # n=6 > k=2: ramp 1+2, then 4 full windows of 2
    assert doc["self_attn_scores"] == 3 + 4 * 2


# ---------------------------------------------------------------------------
# run-config fuzz


def _fuzz_paths() -> list[tuple[str, ...]]:
    paths = [(section,) for section in DEFAULT_RUN_CONFIG]
    for section, body in DEFAULT_RUN_CONFIG.items():
        if isinstance(body, dict):
            paths += [(section, key) for key in body]
    return paths + [("data", "synthetic", key) for key in sorted(SYNTHETIC_TYPES)]


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(-2, 8, allow_nan=False)
    | st.sampled_from(["", "x", "AT", "TAT", "MAT", "copy", "reverse", "periodic_mode", "char", "/nonexistent"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["k", "task", "steps"]), inner, max_size=2),
    max_leaves=4,
)


def _config_loads_or_is_a_usage_error(capsys, edits) -> None:
    """Apply (path, value) edits to a small valid config: count-ops and
    train must either succeed or exit 2 with an error line, never a
    traceback."""
    doc = {
        "seed": 0,
        "model": {"variant": "MAT", "k": 2, "enc_layers": 1, "dec_layers": 1, "heads": 2, "d_model": 8,
                  "d_ff": 8, "max_len": 12, "dropout": 0.0},
        "data": {"synthetic": {"task": "copy", "n_pairs": 20, "len_range": [2, 4], "vocab_size": 5,
                               "seed": 0, "test_fraction": 0.25}},
        "training": {"steps": 1, "max_tokens_per_batch": 64, "warmup": 2},
    }
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["count-ops", "--n", "3"], ["train", "--out-root", os.path.join(tmp, "runs")]):
            rc = main(argv[:1] + ["--config", cfg] + argv[1:])
            out, err = capsys.readouterr()
            assert rc == 0 or (rc == 2 and err.startswith("error:")), (argv[0], doc, rc, err)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_fuzz_paths()), _JSON_VALUES), min_size=1, max_size=3))
def test_fuzzed_run_config_loads_or_is_a_usage_error(capsys, edits):
    _config_loads_or_is_a_usage_error(capsys, edits)


@pytest.mark.parametrize("path", _fuzz_paths(), ids=".".join)
def test_every_config_key_takes_any_json_value(capsys, path):
    """One edit at a time, each path against a fixed set of values: the
    random edits above rarely draw a given bad value at a given key, such
    as a negative data.synthetic.seed."""
    values = [None, True, -1, 0, 2, 0.5, "", "x", [], [4, 2], {}, {"k": 1}]
    for value in values:
        _config_loads_or_is_a_usage_error(capsys, [(path, value)])
