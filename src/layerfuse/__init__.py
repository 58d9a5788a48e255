"""Attention-gated fusion of encoder layers, with a desk-scale experiment harness.

The library fuses one lower encoder layer with the top layer through a
two-branch attention gate, differentiates everything with an exact
reverse-mode pass, and ships the training, sweeping, similarity-probe, and
persistence machinery needed to study cross-language transfer on synthetic
or exported per-layer embeddings.
"""

__version__ = "0.1.0"

from .analysis import (
    SimilarityError,
    SimilarityReport,
    avg_cross_lingual_similarity,
    cosine_similarity,
    emit_report,
    sentence_embeddings,
)
from .bank import (
    BankFormatError,
    BankTruncationError,
    DataError,
    LayerBank,
    load_params,
    read_bank,
    save_params,
    write_bank,
)
from .fusion import (
    BaselineSystem,
    ClassifierHead,
    FusionSystem,
    LayerPair,
    build_fusion_system,
    build_system,
    fuse_layers,
    init_head,
    stored_values,
    trainable,
)
from .gate import (
    GATE_MODES,
    VARIANTS,
    BranchParams,
    GateParams,
    gate_forward,
    global_branch_forward,
    init_gate_params,
    inner_width,
    local_branch_forward,
)
from .gradcheck import (
    EvaluationError,
    GradCheckReport,
    classification_pipeline,
    finite_difference_check,
)
from .synthetic import SyntheticTaskSpec, TaskSpecError, generate_task
from .tensor import (
    BatchNormState,
    DegenerateBatchError,
    DimensionError,
    Tensor,
    backward,
    batch_norm,
    broadcast_add,
    conv1x1,
    elementwise_mul,
    mean_pool_tokens,
    mix,
    parameter,
    relu,
    scale,
    shift,
    sigmoid,
    sub,
)
from .training import (
    AdamW,
    Metrics,
    SweepReport,
    SweepRow,
    TrainConfig,
    classification_metrics,
    evaluate,
    layer_sweep,
    softmax_cross_entropy,
    train,
)
