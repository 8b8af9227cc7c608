"""Corpus I/O, vocabulary, synthetic task generators, and the windowed
Bayes oracle."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovnmt.data import (
    CorpusError,
    SyntheticSpec,
    Vocab,
    VocabError,
    detokenize,
    generate_pairs,
    mode_target_positions,
    numericalize,
    parse_corpus,
    periodic_positions,
    read_sidecar,
    split_pairs,
    successor,
    tokenize,
    windowed_oracle_accuracy,
    write_sidecar,
    write_tsv,
)
from markovnmt.model import BOS_ID, EOS_ID, PAD_ID, UNK_ID


# ------------------------------------------------------------ tokenize


def test_tokenize_modes():
    assert tokenize("the  cat sat", "whitespace") == ["the", "cat", "sat"]
    assert tokenize("ab c", "char") == ["a", "b", "c"]  # char mode drops spaces
    assert detokenize(["a", "b"], "whitespace") == "a b"
    assert detokenize(["a", "b"], "char") == "ab"
    with pytest.raises(ValueError):
        tokenize("x", "bpe")


# --------------------------------------------------------------- vocab


def test_vocab_reserved_ids_and_frequency_order():
    v = Vocab.build([["b", "a"], ["a", "c"], ["c", "c"]])
    assert v.encode(["<pad>", "<bos>", "<eos>", "<unk>"]) == [PAD_ID, BOS_ID, EOS_ID, UNK_ID]
    assert v.encode(["c", "a", "b"]) == [4, 5, 6]  # frequency descending
    assert v.encode(["zzz"]) == [UNK_ID]
    assert len(v) == 7


def test_vocab_tie_break_is_lexicographic():
    v = Vocab.build([["b", "b", "a", "a"]])
    assert v.encode(["a", "b"]) == [4, 5]


def test_vocab_max_size_counts_reserved_slots():
    v = Vocab.build([["a", "a", "b", "b", "c"]], max_size=6)
    assert len(v) == 6
    assert v.encode(["c"]) == [UNK_ID]  # lowest frequency dropped first
    with pytest.raises(ValueError):
        Vocab.build([["a"]], max_size=4)  # no room beyond the reserved ids


def test_vocab_min_freq():
    v = Vocab.build([["a", "a", "b"]], min_freq=2)
    assert v.encode(["b"]) == [UNK_ID]
    assert v.encode(["a"]) == [4]


def test_vocab_decode_strips_control_tokens_keeps_unk():
    v = Vocab.build([["x"]])
    ids = [BOS_ID, 4, PAD_ID, UNK_ID, EOS_ID]
    assert v.decode(ids) == ["x", "<unk>"]
    assert v.decode(ids, strip_reserved=False) == ["<bos>", "x", "<pad>", "<unk>", "<eos>"]
    with pytest.raises(ValueError):
        v.decode([99])


def test_vocab_serialization_roundtrip():
    v = Vocab.build([["q", "r", "q"]])
    again = Vocab.from_dict(v.to_dict())
    assert again.itos == v.itos and again.stoi == v.stoi
    with pytest.raises(ValueError):
        Vocab(itos=["a", "b", "c", "d", "e"])  # reserved ids missing


@pytest.mark.parametrize(
    "itos, problem",
    [
        (["<pad>", "<bos>", "<eos>", "<unk>", "a", "a"], "more than once"),
        (["<pad>", "<bos>", "<eos>", "<unk>", 1, 2], "must be strings"),
        ("<pad><bos>", "'itos' list"),
    ],
)
def test_vocab_from_dict_rejects_malformed_tables(itos, problem):
    with pytest.raises(VocabError, match=problem):
        Vocab.from_dict({"itos": itos})


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["ab", "cd", "e", "fg"]), min_size=1, max_size=40))
def test_vocab_roundtrip_for_known_tokens(tokens):
    v = Vocab.build([tokens])
    assert v.decode(v.encode(tokens)) == tokens


# ----------------------------------------------------------- tsv files


def test_parse_corpus_roundtrip(tmp_path):
    path = tmp_path / "c.tsv"
    pairs = [("a b", "b a"), ("x", "x")]
    assert write_tsv(path, pairs) == 2
    assert parse_corpus(path) == pairs


def test_parse_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ok\tok\nno-tab-here\nx\ty\tz\n\tmissing-src\n")
    with pytest.raises(CorpusError) as err:
        parse_corpus(path)
    msg = str(err.value)
    assert "line 2" in msg and "line 3" in msg and "line 4" in msg


def test_parse_corpus_names_invalid_utf8_lines(tmp_path):
    path = tmp_path / "bytes.tsv"
    path.write_bytes(b"ok\tok\nbad \xff\xfe\tx\n" + "café\tok\n".encode("utf-8"))
    with pytest.raises(CorpusError, match=r"line 2: invalid UTF-8$"):
        parse_corpus(path)


def test_parse_corpus_empty_file_warns(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.warns(UserWarning):
        assert parse_corpus(path) == []


def test_write_tsv_rejects_control_characters(tmp_path):
    with pytest.raises(CorpusError):
        write_tsv(tmp_path / "x.tsv", [("a\tb", "c")])
    with pytest.raises(CorpusError):
        write_tsv(tmp_path / "x.tsv", [("a", "b\nc")])


# -------------------------------------------------------- numericalize


def test_numericalize_appends_eos_to_source_only():
    v = Vocab.build([["a", "b"]])
    out = numericalize([(["a", "b"], ["b", "a"])], v, v, max_len=16)
    src, tgt = out.items[0]
    assert src[-1] == EOS_ID and EOS_ID not in tgt
    assert v.decode(src) == ["a", "b"] and v.decode(tgt) == ["b", "a"]


def test_numericalize_drops_overlong_pairs():
    v = Vocab.build([["a"]])
    pairs = [(["a"] * 4, ["a"]), (["a"], ["a"])]
    out = numericalize(pairs, v, v, max_len=4)  # src+EOS would need 5 slots
    assert len(out.items) == 1 and out.dropped == 1


def test_numericalize_drops_empty_sides():
    v = Vocab.build([["a"]])
    out = numericalize([([], ["a"]), (["a"], [])], v, v, max_len=8)
    assert out.items == [] and out.dropped == 2


# ---------------------------------------------------- synthetic corpora


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(task="sort", n_pairs=4, len_range=(2, 3), vocab_size=5, seed=0).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(task="copy", n_pairs=4, len_range=(3, 2), vocab_size=5, seed=0).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(
            task="periodic_mode", n_pairs=4, len_range=(2, 3), vocab_size=5, d=0, seed=0
        ).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(task="copy", n_pairs=4, len_range=(2, 3), vocab_size=5, d=2, seed=0).validate()


def test_copy_and_reverse_tasks():
    for task, transform in (("copy", lambda xs: xs), ("reverse", lambda xs: xs[::-1])):
        spec = SyntheticSpec(task=task, n_pairs=30, len_range=(2, 6), vocab_size=10, seed=3)
        pairs = generate_pairs(spec)
        assert len(pairs) == 30
        for src, tgt in pairs:
            assert 2 <= len(src) <= 6
            assert tgt == transform(src)


def test_generation_is_seed_deterministic():
    spec = SyntheticSpec(task="copy", n_pairs=10, len_range=(2, 5), vocab_size=8, seed=7)
    assert generate_pairs(spec) == generate_pairs(spec)
    other = SyntheticSpec(task="copy", n_pairs=10, len_range=(2, 5), vocab_size=8, seed=8)
    assert generate_pairs(spec) != generate_pairs(other)


# SHA-256 of the corpora below, as generated before any speed-up of the
# generator; every later version must produce the same bytes
SYNTHETIC_DIGEST = "15b850b7b1dfd5c51cb61819202c4e16c369da94b6c4299450db089dc22a6d68"


def test_synthetic_data_is_byte_identical():
    """Pairs, splits, vocabularies and id sequences of copy, reverse and
    periodic_mode (d=1 and d=4) corpora at three seeds, hashed."""
    digest = hashlib.sha256()
    for task, d in (("copy", None), ("reverse", None), ("periodic_mode", 1), ("periodic_mode", 4)):
        for seed in (0, 1, 7):
            for vocab_size in (8, 30):
                spec = SyntheticSpec(
                    task=task, n_pairs=200, len_range=(3, 12), vocab_size=vocab_size, d=d, seed=seed
                )
                pairs = generate_pairs(spec)
                train, test = split_pairs(pairs, 0.2, seed=seed)
                src_vocab = Vocab.build(s for s, _ in train)
                tgt_vocab = Vocab.build(t for _, t in train)
                corpus = numericalize(test, src_vocab, tgt_vocab, max_len=10)
                doc = [pairs, train, test, src_vocab.itos, tgt_vocab.itos, corpus.items, corpus.dropped]
                digest.update(json.dumps(doc).encode("utf-8"))
    assert digest.hexdigest() == SYNTHETIC_DIGEST


def test_periodic_positions_spacing():
    # 1-based source positions 1, d+2, 2d+3, ... -> gaps of d+1
    assert periodic_positions(4, 12) == [1, 6, 11]
    assert periodic_positions(2, 7) == [1, 4, 7]
    assert mode_target_positions(4, 12) == [1, 6, 11]  # same indices, 0-based in Y


def test_successor_is_a_derangement():
    symbols = ["a", "b", "c"]
    assert [successor(s, symbols) for s in symbols] == ["b", "c", "a"]


def test_periodic_mode_task_structure():
    spec = SyntheticSpec(
        task="periodic_mode", n_pairs=200, len_range=(8, 12), vocab_size=9, d=3, seed=5
    )
    pairs = generate_pairs(spec)
    assert {tgt[0] for _, tgt in pairs} == {"A", "B"}
    n_b = 0
    for src, tgt in pairs:
        assert len(tgt) == len(src) + 1
        rewrite = set(periodic_positions(3, len(src)))
        if tgt[0] == "A":
            assert tgt[1:] == src
        else:
            n_b += 1
            for j, (want, have) in enumerate(zip(src, tgt[1:]), start=1):
                if j in rewrite:
                    assert have != want  # successor never fixes a symbol
                else:
                    assert have == want
    assert 60 <= n_b <= 140  # both modes well represented


def test_split_pairs_disjoint_and_deterministic():
    spec = SyntheticSpec(task="copy", n_pairs=300, len_range=(3, 8), vocab_size=12, seed=1)
    pairs = generate_pairs(spec)
    train, test = split_pairs(pairs, 0.25, seed=9)
    train2, test2 = split_pairs(pairs, 0.25, seed=9)
    assert (train, test) == (train2, test2)
    assert len(train) + len(test) == len(pairs)
    as_keys = lambda split: {(tuple(s), tuple(t)) for s, t in split}
    assert not (as_keys(train) & as_keys(test))
    assert 0.15 <= len(test) / len(pairs) <= 0.35


def test_split_pairs_keeps_duplicates_together():
    pairs = [(["a"], ["a"])] * 50 + [([f"x{i}"], [f"x{i}"]) for i in range(50)]
    train, test = split_pairs(pairs, 0.5, seed=0)
    train_keys = {(tuple(s), tuple(t)) for s, t in train}
    test_keys = {(tuple(s), tuple(t)) for s, t in test}
    assert not (train_keys & test_keys)
    with pytest.raises(ValueError):
        split_pairs(pairs, 1.0)


def test_sidecar_roundtrip(tmp_path):
    spec = SyntheticSpec(
        task="periodic_mode", n_pairs=10, len_range=(4, 6), vocab_size=7, d=2, seed=3
    )
    path = tmp_path / "meta.json"
    write_sidecar(path, spec, extra={"n_train": 8, "n_test": 2})
    doc = read_sidecar(path)
    assert SyntheticSpec(**{**doc["generator"], "len_range": tuple(doc["generator"]["len_range"])}) == spec
    assert (doc["n_train"], doc["n_test"]) == (8, 2)


# ------------------------------------------------------- the oracle


@pytest.fixture(scope="module")
def oracle_corpus():
    spec = SyntheticSpec(
        task="periodic_mode", n_pairs=400, len_range=(12, 18), vocab_size=8, d=4, seed=2
    )
    return generate_pairs(spec)


def test_oracle_ceiling_below_window(oracle_corpus):
    """A window of k <= d tokens never spans back to the previous rewrite
    position, so away from the leading flag the best any predictor can do
    on rewrite positions is a coin flip."""
    for k in (1, 2, 3, 4):
        report = windowed_oracle_accuracy(oracle_corpus, d=4, k=k, vocab_size=8)
        assert report.beyond_mode_window == pytest.approx(0.5, abs=1e-12)
        assert report.overall < 0.75


def test_oracle_perfect_at_window_equal_d_plus_one(oracle_corpus):
    report = windowed_oracle_accuracy(oracle_corpus, d=4, k=5, vocab_size=8)
    assert report.overall == 1.0
    assert report.beyond_mode_window == 1.0


def test_oracle_counts_positions(oracle_corpus):
    r = windowed_oracle_accuracy(oracle_corpus, d=4, k=2, vocab_size=8)
    assert r.n_positions > r.n_beyond > 0
    with pytest.raises(ValueError):
        windowed_oracle_accuracy(oracle_corpus, d=4, k=0, vocab_size=8)
