"""Generative sequence engine for multimodal longitudinal measurement streams."""

__version__ = "0.1.0"

from .vocab import (  # noqa: F401
    ModalitySpec,
    RawModality,
    Vocabulary,
    build_vocabulary,
    decode_token,
    encode_value,
    load_vocabulary,
    quantile_match,
    save_vocabulary,
)
from .corpus import (  # noqa: F401
    AugmentConfig,
    Event,
    ParticipantRecord,
    TokenSequence,
    assemble_sequence,
    augment,
    time_features,
)
from .model import (  # noqa: F401
    Causal,
    ModelConfig,
    ParallelV2,
    SplitContext,
    build_mask,
    forward,
    init_params,
    param_count,
)
from .objective import LossConfig, TrainConfig, lr_at, sequence_loss, soft_target, train  # noqa: F401
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: F401
