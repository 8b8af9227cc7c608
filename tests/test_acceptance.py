"""Acceptance gate: one test per shipped claim, one pass/fail line each
under `pytest -v`.

Every tolerance and budget is pinned in the test body. The two training
reproductions (criteria 8 and 9) dominate the runtime. Their models start
training with this module's first test, and the two criteria are checked
at the end of the session, so the rest of the suite runs while they train;
everything else here is structural and fails fast.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from markovnmt.audit import audit_model
from markovnmt.data import SyntheticSpec, generate_pairs, windowed_oracle_accuracy
from markovnmt.decoding import (
    beam_decode,
    count_decode_ops,
    greedy_decode,
    incremental_step,
    init_state,
    length_penalty,
)
from markovnmt.evaluation import SweepTemplate, bucketed_bleu, corpus_bleu, run_sweep_cell
from markovnmt.model import (
    EOS_ID,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
    ensure_valid,
)
from markovnmt.tensor import grad_check
from markovnmt.training import TrainSettings, batch_loss, build_batch


def _cfg(variant="MAT", k=2, **over):
    base = dict(
        variant=variant,
        k=k if variant == "MAT" else None,
        enc_layers=1,
        dec_layers=1,
        heads=2,
        d_model=16,
        d_ff=32,
        src_vocab_size=8,
        tgt_vocab_size=8,
        max_len=24,
        dropout=0.0,
        seed=0,
    )
    base.update(over)
    return ensure_valid(ModelConfig(**base))


def _random_sentence(rng, vocab, lo, hi, eos=False):
    ids = [int(t) for t in rng.integers(4, vocab, size=int(rng.integers(lo, hi + 1)))]
    return ids + [EOS_ID] if eos else ids


# ---------------------------------------------------------------------------
# structural criteria


def test_criterion_01_windowed_markov_property_is_exact():
    t0 = time.process_time()
    worst = 0.0
    rows = 0
    for k in (1, 2, 3, 5):
        for dec_layers in (1, 2, 4):
            model = build_model(_cfg(variant="MAT", k=k, dec_layers=dec_layers))
            report = audit_model(model, n_sentences=2, src_len=6, tgt_len=19)
            assert report.passed, (
                f"k={k} dec_layers={dec_layers}: {len(report.violations)} violations, "
                f"max delta {report.max_out_of_window_delta}"
            )
            assert report.max_out_of_window_delta == 0.0
            worst = max(worst, report.max_out_of_window_delta)
            rows += report.n_rows_checked
    cpu = time.process_time() - t0
    assert cpu < 60.0
    print(
        f"[criterion 01] PASS windowed perturbation exact: max out-of-window "
        f"delta {worst} over 12 configs, {rows} frozen rows, {cpu:.1f}s cpu"
    )


def test_criterion_02_contextual_banded_control_leaks():
    t0 = time.process_time()
    leaky = build_model(_cfg(variant="MAT", k=2, dec_layers=2, transparent=False))
    report = audit_model(leaky, n_sentences=2, src_len=6, tgt_len=10)
    assert not report.passed
    assert report.max_out_of_window_delta > 0.0
    assert any(v.logit_row - v.perturbed_position >= 2 for v in report.violations)
    cpu = time.process_time() - t0
    assert cpu < 30.0
    print(
        f"[criterion 02] PASS contextual-KV banded control leaks: "
        f"{len(report.violations)} out-of-window changes, max delta "
        f"{report.max_out_of_window_delta:.3e}, {cpu:.1f}s cpu"
    )


def test_criterion_03_decode_cost_counts():
    windowed = count_decode_ops(_cfg(variant="MAT", k=5), 25)
    full = count_decode_ops(_cfg(variant="AT", k=None), 25)
    assert windowed["self_attn_scores"] == 115
    assert full["self_attn_scores"] == 325
    ratio = full["self_attn_scores"] / windowed["self_attn_scores"]
    assert abs(ratio - 2.826) <= 0.001
    print(
        f"[criterion 03] PASS decode cost: 115 vs 325 scores per layer/head "
        f"at n=25, ratio {ratio:.4f}"
    )


def test_criterion_04_decoder_state_is_constant_size():
    d_model = 16
    mat = build_model(_cfg(variant="MAT", k=5, max_len=128, d_model=d_model))
    at = build_model(_cfg(variant="AT", k=None, max_len=128, d_model=d_model))
    src = [4, 5, 6, 2]

    state = init_state(mat, src)
    for _ in range(100):
        state.push(4)
    assert state.step == 101
    assert state.resident_floats() == 5 * d_model

    state = init_state(at, src)
    sizes = [state.resident_floats()]
    for _ in range(100):
        state.push(4)
        sizes.append(state.resident_floats())
    slopes = {b - a for a, b in zip(sizes, sizes[1:])}
    assert slopes == {d_model}
    assert sizes[-1] == 101 * d_model
    print(
        f"[criterion 04] PASS resident state: windowed holds {5 * d_model} "
        f"floats after 100 tokens; unwindowed grows {d_model} floats/token "
        f"to {sizes[-1]}"
    )


def test_criterion_05_incremental_matches_parallel_forward():
    t0 = time.process_time()
    worst = 0.0
    from markovnmt.model import BOS_ID
    from markovnmt.tensor import no_grad

    for seed in range(100):
        rng = np.random.default_rng(seed)
        for variant in ("AT", "TAT", "MAT"):
            k = int(rng.integers(1, 5)) if variant == "MAT" else None
            cfg = _cfg(
                variant=variant,
                k=k,
                d_model=int(rng.choice([8, 16])),
                dec_layers=int(rng.integers(1, 3)),
                src_vocab_size=9,
                tgt_vocab_size=9,
                max_len=10,
                seed=seed,
            )
            model = build_model(cfg)
            src = _random_sentence(rng, 9, 3, 6, eos=True)
            state = init_state(model, src)
            with no_grad():
                memory = encode(model, src)
            prefix = [BOS_ID]
            for _ in range(6):
                inc = incremental_step(state)
                with no_grad():
                    par = decode_forward(model, memory, prefix).data[-1]
                worst = max(worst, float(np.abs(inc - par).max()))
                assert worst <= 1e-5, f"seed {seed} {variant} k={k}: diff {worst}"
                token = int(np.argmax(inc))
                if token == EOS_ID:
                    break
                state.push(token)
                prefix.append(token)
    cpu = time.process_time() - t0
    assert cpu < 60.0
    print(
        f"[criterion 05] PASS incremental = parallel: max abs logit diff "
        f"{worst:.2e} over 100 models x 3 variants, {cpu:.1f}s cpu"
    )


def _set_by_name(params, name, tensor):
    parts = name.split(".")
    node = params
    for part in parts[:-1]:
        node = node[int(part)] if part.isdigit() else getattr(node, part)
    setattr(node, parts[-1], tensor)


def test_criterion_06_gradients_match_finite_differences():
    t0 = time.process_time()
    errs = {}
    for variant, k in (("AT", None), ("TAT", None), ("MAT", 2)):
        model = build_model(
            _cfg(
                variant=variant,
                k=k,
                d_model=16,
                src_vocab_size=11,
                tgt_vocab_size=11,
                max_len=8,
            )
        )
        batch = build_batch([([4, 5, 6, 2], [7, 8, 9])], [0])
        names = [n for n, _ in model.params.named()]
        tensors = [t for _, t in model.params.named()]

        def loss_fn(plist, _names=names, _model=model, _batch=batch):
            for name, p in zip(_names, plist):
                _set_by_name(_model.params, name, p)
            return batch_loss(_model, _batch)

        result = grad_check(loss_fn, tensors, h=1e-3)
        errs[variant] = result.max_rel_err
        assert result.max_rel_err <= 1e-3, f"{variant}: {result.max_rel_err:.3e}"
    cpu = time.process_time() - t0
    assert cpu < 120.0
    detail = ", ".join(f"{v} {e:.2e}" for v, e in errs.items())
    print(
        f"[criterion 06] PASS finite-difference gradients (h=1e-3, every "
        f"parameter element): {detail}, {cpu:.1f}s cpu"
    )


def test_criterion_07_full_window_equals_unwindowed_static_variant():
    worst_equal = True
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dims = dict(
            d_model=int(rng.choice([8, 16])),
            dec_layers=int(rng.integers(1, 3)),
            enc_layers=1,
            src_vocab_size=int(rng.choice([9, 12])),
            tgt_vocab_size=int(rng.choice([9, 12])),
            max_len=int(rng.choice([8, 10])),
            seed=seed,
        )
        tat = build_model(_cfg(variant="TAT", k=None, **dims))
        mat = build_model(_cfg(variant="MAT", k=dims["max_len"], **dims))
        src = _random_sentence(rng, dims["src_vocab_size"], 2, 5, eos=True)
        tgt_in = [1] + _random_sentence(rng, dims["tgt_vocab_size"], 2, 6)
        from markovnmt.tensor import no_grad

        with no_grad():
            a = decode_forward(tat, encode(tat, src), tgt_in).data
            b = decode_forward(mat, encode(mat, src), tgt_in).data
        assert np.array_equal(a, b), f"seed {seed}: logits differ"
        worst_equal = worst_equal and np.array_equal(a, b)
    print(
        "[criterion 07] PASS window k = max_len is bit-identical to the "
        "unwindowed static-KV variant on 50 random models"
    )


def test_criterion_10_bleu_unit_suite():
    corpus = [["a", "b", "c", "d", "e"]]
    assert corpus_bleu(corpus, corpus) == 1.0
    assert corpus_bleu([["a", "a", "a"]], [["a", "b"]], max_n=1) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0
    refs = [["r"] * n for n in (5, 15, 25, 70)]
    buckets = bucketed_bleu(refs, refs, edges=(10, 20, 30))
    assert sum(b.count for b in buckets) == len(refs)
    assert [b.count for b in buckets] == [1, 1, 1, 1]
    print(
        "[criterion 10] PASS bleu units: identity 1.0, clipped p1 = 1/3, "
        "disjoint 0.0, buckets partition the corpus"
    )


def _exhaustive_two_step_best(model, src, alpha):
    """Enumerate every hypothesis reachable in a 2-step budget and return
    the best (score, length, tokens) — scored with the parallel forward,
    independent of the beam's incremental path."""
    from markovnmt.model import BOS_ID
    from markovnmt.tensor import no_grad

    V = model.config.tgt_vocab_size

    def lsm(prefix):
        with no_grad():
            logits = decode_forward(model, encode(model, src), prefix).data[-1]
        z = logits - logits.max()
        return z - np.log(np.exp(z).sum())

    pool = []
    base = lsm([BOS_ID])
    pool.append(([], float(base[EOS_ID]) / length_penalty(1, alpha), float(base[EOS_ID])))
    for a in range(V):
        if a == EOS_ID:
            continue
        cont = lsm([BOS_ID, a])
        logp_a = float(base[a])
        pool.append((
            [a],
            (logp_a + float(cont[EOS_ID])) / length_penalty(2, alpha),
            logp_a + float(cont[EOS_ID]),
        ))
        for b in range(V):
            if b == EOS_ID:
                continue
            total = logp_a + float(cont[b])
            pool.append(([a, b], total / length_penalty(2, alpha), total))
    pool.sort(key=lambda h: (-h[1], len(h[0]), h[0]))
    return pool[0]


def test_criterion_11_beam_properties():
    t0 = time.process_time()
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        variant = ("AT", "TAT", "MAT")[seed % 3]
        cfg = _cfg(
            variant=variant,
            k=int(rng.integers(1, 4)) if variant == "MAT" else None,
            d_model=int(rng.choice([8, 16])),
            src_vocab_size=9,
            tgt_vocab_size=9,
            max_len=8,
            seed=seed,
        )
        model = build_model(cfg)
        src = _random_sentence(rng, 9, 2, 5, eos=True)
        assert beam_decode(model, src, beam_size=1, alpha=0.0).tokens == greedy_decode(
            model, src
        ), f"seed {seed} {variant}: beam 1 differs from greedy"

    toy_matches = 0
    for seed in range(6):
        variant = ("AT", "TAT", "MAT")[seed % 3]
        model = build_model(
            _cfg(
                variant=variant,
                k=2 if variant == "MAT" else None,
                src_vocab_size=7,
                tgt_vocab_size=7,
                max_len=3,
                seed=seed,
            )
        )
        src = [4, 5, 2]
        for alpha in (0.0, 0.6):
            result = beam_decode(model, src, beam_size=7, alpha=alpha)
            tokens, score, _ = _exhaustive_two_step_best(model, src, alpha)
            assert result.tokens == tokens, f"seed {seed} alpha {alpha}"
            # scores travel different routes (incremental vs parallel
            # forward), so they agree only to the criterion-05 bound
            assert result.n_best[0].score == pytest.approx(score, abs=1e-5)
            toy_matches += 1
    cpu = time.process_time() - t0
    assert cpu < 60.0
    print(
        f"[criterion 11] PASS beam: beam=1 = greedy on 100 random models; "
        f"beam=V matches the exhaustive oracle in {toy_matches}/12 toy "
        f"settings, {cpu:.1f}s cpu"
    )


# ---------------------------------------------------------------------------
# training reproductions (minutes each; budgets asserted per model)


_ORDER_SWEEP_DATA = SyntheticSpec(
    task="periodic_mode", n_pairs=4000, len_range=(12, 20), vocab_size=6, seed=0, d=4
)

# criterion name -> (template, cells)
_TRAINING_CRITERIA = {
    "test_criterion_08_order_sweep_reproduces_the_window_effect": (
        SweepTemplate(
            data=_ORDER_SWEEP_DATA,
            model=ModelConfig(
                variant="MAT",
                k=5,
                enc_layers=2,
                dec_layers=2,
                heads=4,
                d_model=64,
                d_ff=128,
                src_vocab_size=8,
                tgt_vocab_size=8,
                max_len=32,
                dropout=0.0,
                seed=0,
            ),
            training=TrainSettings(
                steps=2500,
                max_tokens_per_batch=2200,
                base_lr=0.05,
                warmup=400,
                label_smoothing=0.0,
                weight_decay=0.0,
                log_every=500,
                seed=0,
            ),
            test_fraction=0.15,
            split_seed=0,
        ),
        [("MAT", 1), ("MAT", 2), ("MAT", 3), ("MAT", 5), ("AT", None)],
    ),
    "test_criterion_09_copy_task_is_window_insensitive": (
        SweepTemplate(
            data=SyntheticSpec(task="copy", n_pairs=3000, len_range=(5, 12), vocab_size=8, seed=0),
            model=ModelConfig(
                variant="MAT",
                k=3,
                enc_layers=2,
                dec_layers=2,
                heads=4,
                d_model=64,
                d_ff=128,
                src_vocab_size=8,
                tgt_vocab_size=8,
                max_len=16,
                dropout=0.0,
                seed=0,
            ),
            training=TrainSettings(
                steps=1200,
                max_tokens_per_batch=2200,
                base_lr=0.05,
                warmup=200,
                label_smoothing=0.0,
                weight_decay=0.0,
                log_every=400,
                seed=0,
            ),
            test_fraction=0.15,
            split_seed=0,
        ),
        [("MAT", 1), ("MAT", 3), ("AT", None)],
    ),
}


def _timed_cell(template, variant, k):
    t0, w0 = time.process_time(), time.perf_counter()
    row = run_sweep_cell(template, variant, k, seed=0)
    return row, time.process_time() - t0, time.perf_counter() - w0


@pytest.fixture(scope="session")
def training_cells(request):
    """Start the cells of every selected training criterion in one process
    pool, one worker per core, and map (criterion, variant, k) to a future.

    The cells are independent and deterministic, so the order they run in
    does not change their results. The longest cells are queued first, and
    the short copy cells fill the cores once the order sweep winds down;
    one pool per criterion would leave a core idle at the end of each.
    With no more processes than cores, no cell waits long for a core, so
    its CPU and wall seconds come out close to what it takes alone.
    """
    selected = {item.name for item in request.session.items}
    jobs = [
        (name, template, variant, k)
        for name, (template, cells) in _TRAINING_CRITERIA.items()
        if name in selected
        for variant, k in cells
    ]
    jobs.sort(key=lambda job: -job[1].training.steps)
    workers = max(1, min(len(jobs), len(os.sched_getaffinity(0))))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield {
            (name, variant, k): pool.submit(_timed_cell, template, variant, k)
            for name, template, variant, k in jobs
        }


@pytest.fixture(scope="module", autouse=True)
def _start_training(request):
    # The criteria that read the cells run at the end of the session (see
    # tests/conftest.py); the cells train meanwhile, beside the other tests.
    request.getfixturevalue("training_cells")


def _run_cells(training_cells, name, per_model_budget):
    # Each cell is timed inside the process that trains it, so its CPU
    # seconds are its own, as when the cells ran one by one.
    out = {}
    for variant, k in _TRAINING_CRITERIA[name][1]:
        row, cpu, wall = training_cells[(name, variant, k)].result()
        assert row["status"] == "ok", f"{variant} k={k}: {row['status']}"
        # wall time beside CPU time tells extra threads apart from slower code
        assert cpu <= per_model_budget, (
            f"{variant} k={k}: {cpu:.0f}s cpu ({wall:.0f}s wall) > {per_model_budget:.0f}s budget"
        )
        out[(variant, k)] = (float(row["value"]), cpu, wall)
    return out


def _cell_detail(results):
    return ", ".join(
        f"{v}{'' if k is None else f'(k={k})'} {acc:.4f} ({cpu:.0f}s cpu, {wall:.0f}s wall)"
        for (v, k), (acc, cpu, wall) in results.items()
    )


def test_criterion_09_copy_task_is_window_insensitive(training_cells):
    results = _run_cells(
        training_cells, "test_criterion_09_copy_task_is_window_insensitive", per_model_budget=300.0
    )
    for (variant, k), (acc, _, _) in results.items():
        assert acc >= 0.99, f"{variant} k={k}: sequence accuracy {acc:.4f} < 0.99"
    print(f"[criterion 09] PASS copy control: {_cell_detail(results)}")


def test_criterion_08_order_sweep_reproduces_the_window_effect(training_cells):
    results = _run_cells(
        training_cells,
        "test_criterion_08_order_sweep_reproduces_the_window_effect",
        per_model_budget=600.0,
    )
    acc = {k: v for (variant, k), (v, _, _) in results.items() if variant == "MAT"}
    assert acc[5] >= 0.95, f"acc(k=5) = {acc[5]:.4f} < 0.95"
    assert acc[1] <= 0.75, f"acc(k=1) = {acc[1]:.4f} > 0.75"
    assert acc[5] - acc[1] >= 0.20, f"gap {acc[5] - acc[1]:.4f} < 0.20"

    # the brute-force windowed Bayes oracle confirms the 0.5 ceiling on
    # positions whose window cannot reach the evidence, for every k <= d
    pairs = generate_pairs(_ORDER_SWEEP_DATA)
    for k in (1, 2, 3, 4):
        oracle = windowed_oracle_accuracy(pairs, d=4, k=k, vocab_size=6)
        assert oracle.beyond_mode_window == 0.5, (
            f"oracle ceiling violated at k={k}: {oracle.beyond_mode_window}"
        )
    assert windowed_oracle_accuracy(pairs, d=4, k=5, vocab_size=6).overall == 1.0

    print(
        f"[criterion 08] PASS order sweep: {_cell_detail(results)}; oracle ceiling 0.5 "
        f"for k<=4, 1.0 at k=5"
    )
