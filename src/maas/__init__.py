"""maas: query-conditioned sampling and training of multi-agent architectures."""

from .controller import (
    ScoreVector,
    SupernetState,
    grad_log_prob,
    init_params,
    sample_selection,
    score_layer,
    select_deterministic,
)
from .embedding import HashingEmbedder, layer_feature
from .executor import (
    ExecutionTrace,
    LiveEnv,
    QueryRecord,
    SyntheticEnv,
    SyntheticOperatorProfile,
    evaluate_answer,
    execute,
)
from .optimizer import (
    TrainConfig,
    Trainer,
    importance_weights,
    textual_gradient,
    update_distribution,
)
from .registry import (
    OperatorPatch,
    OperatorRegistry,
    OperatorSpec,
    builtin_catalog,
    builtin_registry,
)
from .sampler import Architecture, architecture_log_prob, build_dag, sample_architecture

__version__ = "0.1.0"
