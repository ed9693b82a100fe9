import numpy as np
import pytest

from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.model import ModelConfig, init_parameters


def small_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_size=48, max_seq_len=12, model_dim=16, num_layers=1, num_heads=2,
        ffn_dim=32, num_cross_heads=2, mode="dual", dropout_rate=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_example(config: ModelConfig, seed: int, pad1: int = 2, pad2: int = 3):
    """``(seq1, seq2)`` of ``max_seq_len - pad1`` and ``max_seq_len - pad2`` ids."""
    rng = np.random.default_rng(seed)
    n = config.max_seq_len
    seq1 = rng.integers(0, config.vocab_size, n)
    seq2 = rng.integers(0, config.vocab_size, n)
    return seq1[: n - pad1], seq2[: n - pad2]


def make_record(i: int = 0, topic: str = "city parks", argument: str = "parks help people relax",
                scores=(3.0, 2.5, 4.0)) -> ArgumentRecord:
    return ArgumentRecord(
        id=f"r{i}", domain_tag="debates", topic=topic, argument=argument,
        labels=QualityScores(*scores) if scores else None,
    )


@pytest.fixture
def tiny_dataset() -> Dataset:
    rng = np.random.default_rng(0)
    words = ["policy", "change", "helps", "growth", "cities", "people", "should",
             "support", "plans", "because", "evidence", "shows", "costs", "fall"]
    records = []
    assignment = {}
    for i in range(24):
        topic = " ".join(rng.choice(words, 3))
        argument = " ".join(rng.choice(words, 8))
        scores = tuple(np.round(rng.uniform(1, 5, 3), 2))
        records.append(ArgumentRecord(
            id=f"t{i}", domain_tag="debates", topic=topic, argument=argument,
            labels=QualityScores(*scores),
        ))
        assignment[f"t{i}"] = "train" if i < 16 else ("dev" if i < 20 else "test")
    return Dataset(records=records, split_assignment=assignment, name="tiny")
