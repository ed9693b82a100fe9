"""Tokenizer, dual-encoder network, and checkpointing."""

from argscore.model.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from argscore.model.config import ModelConfig
from argscore.model.encoding import EncodedExample, encode_input
from argscore.model.network import (
    HEAD_NAMES,
    ForwardTrace,
    ModelParameters,
    ShapeMismatch,
    backward,
    forward,
    init_parameters,
    parameter_shapes,
)
from argscore.model.vocab import (
    CLS_ID,
    MARKER_IDS,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    EmptyCorpus,
    Vocabulary,
    build_vocab,
    tokenize,
)

__all__ = [
    "CLS_ID",
    "CheckpointError",
    "EncodedExample",
    "EmptyCorpus",
    "ForwardTrace",
    "HEAD_NAMES",
    "MARKER_IDS",
    "ModelConfig",
    "ModelParameters",
    "RESERVED_TOKENS",
    "SEP_ID",
    "ShapeMismatch",
    "UNK_ID",
    "Vocabulary",
    "backward",
    "build_vocab",
    "encode_input",
    "forward",
    "init_parameters",
    "load_checkpoint",
    "parameter_shapes",
    "save_checkpoint",
    "tokenize",
]
