"""Window-constrained neural translation models, numpy only.

The decoder's self-attention can be restricted to a fixed window of k
positions over static (layer-0) key/value embeddings, which makes every
prediction a function of the source plus at most the previous k target
tokens, lets decoding run without key/value caches in constant per-token
state, and is checkable by exact perturbation audits.
"""

from .attention import (
    AttentionParams,
    build_mask,
    masked_score_count,
    multi_head_attention,
    transparent_self_attention,
)
from .audit import AuditReport, audit_model, audit_sentence
from .data import (
    CorpusError,
    SyntheticSpec,
    Vocab,
    generate_pairs,
    mode_target_positions,
    numericalize,
    parse_corpus,
    split_pairs,
    windowed_oracle_accuracy,
)
from .decoding import (
    BeamResult,
    DecoderState,
    beam_decode,
    count_decode_ops,
    decode_batch,
    greedy_decode,
    incremental_step,
    init_state,
)
from .estimator import MarkovTranslator, NotFittedError, check_is_fitted
from .evaluation import (
    SweepTemplate,
    bucketed_bleu,
    corpus_bleu,
    greedy_sequence_accuracy,
    run_order_sweep,
    teacher_forced_accuracy,
    write_sweep_csv,
)
from .model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CheckpointError,
    ConfigError,
    Model,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    validate_config,
)
from .tensor import (
    ComputationRecord,
    GradientError,
    NonFiniteError,
    Tensor,
    grad_check,
    no_grad,
)
from .training import AdamW, TrainSettings, make_batches, nll_loss, schedule_lr, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AttentionParams",
    "AuditReport",
    "BOS_ID",
    "BeamResult",
    "CheckpointError",
    "ComputationRecord",
    "ConfigError",
    "CorpusError",
    "DecoderState",
    "EOS_ID",
    "GradientError",
    "MarkovTranslator",
    "Model",
    "ModelConfig",
    "NonFiniteError",
    "NotFittedError",
    "PAD_ID",
    "SweepTemplate",
    "SyntheticSpec",
    "Tensor",
    "TrainSettings",
    "UNK_ID",
    "Vocab",
    "audit_model",
    "audit_sentence",
    "beam_decode",
    "bucketed_bleu",
    "build_mask",
    "build_model",
    "check_is_fitted",
    "corpus_bleu",
    "count_decode_ops",
    "decode_batch",
    "decode_forward",
    "encode",
    "generate_pairs",
    "grad_check",
    "greedy_decode",
    "greedy_sequence_accuracy",
    "incremental_step",
    "init_state",
    "load_checkpoint",
    "make_batches",
    "masked_score_count",
    "mode_target_positions",
    "model_from_checkpoint",
    "multi_head_attention",
    "nll_loss",
    "no_grad",
    "numericalize",
    "parse_corpus",
    "run_order_sweep",
    "save_checkpoint",
    "schedule_lr",
    "split_pairs",
    "teacher_forced_accuracy",
    "train",
    "transparent_self_attention",
    "validate_config",
    "windowed_oracle_accuracy",
    "write_sweep_csv",
]
