"""Cooperative selective rationalization: a generator selects a binary token
mask and a predictor classifies from the masked text.  Supports the two-phase
baseline (disjoint encoders), the folded variant (a single encoder shared by
both roles, including partial-depth sharing), the degeneration-inducing skew
protocols, and representation probes."""

from .data import (
    Batch,
    CorpusError,
    Dataset,
    Example,
    Splits,
    SynthConfig,
    Vocabulary,
    build_vocab,
    gold_sparsity,
    load_annotations,
    load_embeddings,
    load_reviews,
    make_batches,
    synth_generate,
    write_jsonl,
)
from .evaluation import (
    ProbeReport,
    RationaleMetrics,
    accuracy,
    evaluate_model,
    insertion_probe,
    lemma3_probe,
    render_rationales,
    sparsity,
    token_prf,
    uninformative_rationale_probe,
)
from .model import (
    MaskSample,
    ModelConfig,
    ModelParams,
    apply_mask,
    build_model,
    encode,
    forward,
    load_checkpoint,
    loss_and_grads,
    param_count,
    pool_max,
    predict,
    sample_mask,
    save_checkpoint,
)
from .objective import (
    ObjectiveConfig,
    cross_entropy,
    sparsity_coherence,
)
from .training import (
    DivergenceError,
    EpochRecord,
    GridResult,
    PretrainThresholdError,
    SkewConfig,
    TrainConfig,
    lr_grid,
    pretrain_skewed_generator,
    pretrain_skewed_predictor,
    select_model,
    train,
)

__version__ = "0.1.0"
