"""Architecture hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("dual", "single")


@dataclass
class ModelConfig:
    vocab_size: int
    max_seq_len: int = 128
    model_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 256
    num_cross_heads: int = 4
    mode: str = "dual"
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("vocab_size", "max_seq_len", "model_dim", "num_layers", "num_heads",
                     "ffn_dim", "num_cross_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.model_dim % self.num_cross_heads != 0:
            raise ValueError("model_dim must be divisible by num_cross_heads")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
