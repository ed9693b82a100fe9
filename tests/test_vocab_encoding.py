from dataclasses import replace

import numpy as np
import pytest

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER
from argscore.model import (
    CLS_ID,
    MARKER_IDS,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    EmptyCorpus,
    ModelConfig,
    Vocabulary,
    build_vocab,
    encode_input,
    tokenize,
)
from tests.conftest import make_record


class TestTokenize:
    def test_lowercase_and_punct_split(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
        assert tokenize("Don't stop") == ["don", "'", "t", "stop"]
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_numbers_kept(self):
        assert tokenize("2 cars") == ["2", "cars"]


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        vocab = build_vocab(["a a b"], max_size=20)
        n_reserved = len(RESERVED_TOKENS)
        assert vocab.token_to_id["a"] == n_reserved
        assert vocab.token_to_id["b"] == n_reserved + 1

    def test_deterministic(self):
        texts = ["one two three two", "three three four"]
        assert build_vocab(texts, 50).id_to_token == build_vocab(texts, 50).id_to_token

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(["known words only"], max_size=20)
        assert vocab.encode(["absent"]) == [UNK_ID]

    def test_truncates_to_budget(self):
        vocab = build_vocab(["a b c d e f"], max_size=len(RESERVED_TOKENS) + 3)
        assert len(vocab.learned_tokens) == 3

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([], max_size=20)
        with pytest.raises(ValueError):
            build_vocab(["x"], max_size=2)

    def test_save_load_and_hash(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma alpha"], max_size=30)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.sha256() == vocab.sha256()
        # line number = id offset after reserved tokens
        lines = path.read_text().splitlines()
        assert lines[0] == vocab.id_to_token[len(RESERVED_TOKENS)]


def _vocab_and_aug():
    texts = ["city parks", "parks help people relax",
             "good structure here", "hidden premise found", "similar point made",
             "the other side says"]
    vocab = build_vocab(texts, max_size=100)
    aug = AugmentationSet(
        feedback="good structure here",
        assumptions="hidden premise found",
        similar_quality="similar point made",
        counter_argument="the other side says",
    )
    return vocab, aug


class TestEncodeInput:
    def test_seq1_layout(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        record = make_record()
        enc = encode_input(record, None, vocab, config, set())
        ids = list(enc.seq1)
        assert ids[0] == CLS_ID
        assert ids.count(SEP_ID) == 2
        assert ids[-1] == SEP_ID

    def test_seq2_kind_order_and_markers(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=32, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        enc = encode_input(make_record(), aug, vocab, config, set(KIND_ORDER))
        ids = list(enc.seq2)
        markers = [i for i in ids if i in MARKER_IDS.values()]
        assert markers == [MARKER_IDS[k] for k in KIND_ORDER]

    def test_no_augmentations_all_pad(self):
        vocab, _ = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        enc = encode_input(make_record(), None, vocab, config, set(KIND_ORDER))
        assert enc.seq2.size == 0

    def test_sequences_at_real_length_with_all_ones_masks(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        short = encode_input(make_record(), None, vocab, config, set())
        cut = encode_input(make_record(argument="parks help people relax " * 6), aug,
                           vocab, config, set(KIND_ORDER))
        assert short.truncated_tokens == 0 and len(short.seq1) < config.max_seq_len
        assert cut.truncated_tokens > 0 and len(cut.seq1) == len(cut.seq2) == config.max_seq_len
        for enc in (short, cut):
            for seq, mask in ((enc.seq1, enc.mask1), (enc.seq2, enc.mask2)):
                assert len(seq) == mask.sum() <= config.max_seq_len
                assert (mask == 1.0).all()

    def test_subset_of_kinds(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=32, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        enc = encode_input(make_record(), aug, vocab, config,
                           {AugmentationKind.FEEDBACK, AugmentationKind.COUNTER_ARGUMENT})
        ids = list(enc.seq2)
        markers = [i for i in ids if i in MARKER_IDS.values()]
        assert markers == [MARKER_IDS[AugmentationKind.FEEDBACK],
                           MARKER_IDS[AugmentationKind.COUNTER_ARGUMENT]]

    def test_no_assumptions_sentinel_dropped(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=32, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        sentinel = replace(aug, assumptions="No assumptions")
        assert sentinel.empty_assumptions
        enc = encode_input(make_record(), sentinel, vocab, config, set(KIND_ORDER))
        ids = list(enc.seq2)
        assert MARKER_IDS[AugmentationKind.ASSUMPTIONS] not in ids

    def test_single_mode_appends_and_truncates(self):
        vocab, aug = _vocab_and_aug()
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=12, model_dim=8,
                             num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2,
                             mode="single")
        record = make_record(argument="parks help people relax " * 6)
        enc = encode_input(record, aug, vocab, config, set(KIND_ORDER))
        assert len(enc.seq1) == config.max_seq_len
        assert len(enc.seq2) == 0
        assert enc.truncated_tokens > 0

    def test_capacity_dual_vs_single(self):
        # same config in both modes: 2L consumable slots vs L
        vocab, aug = _vocab_and_aug()
        long_record = make_record(argument="parks help people relax " * 40)
        long_aug = AugmentationSet(feedback="good structure here " * 40)
        common = dict(vocab_size=len(vocab), max_seq_len=24, model_dim=8,
                      num_layers=1, num_heads=2, ffn_dim=16, num_cross_heads=2)
        dual = ModelConfig(mode="dual", **common)
        single = ModelConfig(mode="single", **common)
        enc_d = encode_input(long_record, long_aug, vocab, dual, set(KIND_ORDER))
        enc_s = encode_input(long_record, long_aug, vocab, single, set(KIND_ORDER))
        assert len(enc_d.seq1) + len(enc_d.seq2) == 2 * dual.max_seq_len
        assert len(enc_s.seq1) + len(enc_s.seq2) == single.max_seq_len
