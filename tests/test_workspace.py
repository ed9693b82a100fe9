"""A reused ``Workspace`` gives the bytes of a fresh one, also after a packed
chunk, a packed pass gives each example's bytes of a pass over it alone, a
chunk's examples are checked one by one, and a warm pass allocates almost
nothing."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from argscore.model import (ModelConfig, ShapeMismatch, Workspace, backward, chunks, forward,
                            init_parameters)
from tests.conftest import small_config


def _poisoned(config, rows=None) -> Workspace:
    """A workspace whose every array is NaN: a value read before it is
    written makes a result NaN."""
    workspace = Workspace(config, rows)
    for value in vars(workspace).values():
        for array in value.values() if isinstance(value, dict) else [value]:
            array.fill(np.nan)
    return workspace


def _trace_arrays(trace) -> list[np.ndarray]:
    arrays = [trace.enc1_states, trace.enc2_states, trace.cross_attn, trace.pooled,
              trace.outputs, *trace.enc1_self_attn, *trace.enc2_self_attn]
    return [a for a in arrays if a is not None]


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one(mode, dropout):
    """Long, short, no context, then long again, each against a fresh
    workspace whose results must be finite: a value read before it is
    written, or one that a longer example left behind, would show."""
    config = small_config(mode=mode, num_layers=2, dropout_rate=dropout)
    params = init_parameters(config, seed=3)
    workspace = Workspace(config)
    rng = np.random.default_rng(4)
    L = config.max_seq_len
    lengths = [(L, L), (3, 2), (L - 1, 0), (L, L)]
    if mode == "single":
        lengths = [(n1, 0) for n1, _ in lengths]
    for i, (n1, n2) in enumerate(lengths):
        seq1 = rng.integers(0, config.vocab_size, n1)
        seq2 = rng.integers(0, config.vocab_size, n2)
        target = rng.random(3)
        run = dict(dropout_enabled=dropout > 0.0, rng_seed=i)

        fresh = _trace_arrays(forward(params, config, seq1, seq2, **run,
                                      workspace=_poisoned(config)))
        reused = _trace_arrays(forward(params, config, seq1, seq2, **run, workspace=workspace))
        assert all(np.isfinite(a).all() for a in fresh), i
        assert [a.tobytes() for a in reused] == [a.tobytes() for a in fresh], i
        loss, grads = backward(params, config, seq1, seq2, target, **run,
                               workspace=_poisoned(config))
        reused_loss, reused_grads = backward(params, config, seq1, seq2, target, **run,
                                             workspace=workspace)
        assert np.isfinite(grads.flat).all(), i
        assert reused_loss == loss, i
        assert reused_grads.flat.tobytes() == grads.flat.tobytes(), i


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_backward_after_a_packed_chunk_gives_the_bytes_of_a_fresh_workspace(dropout):
    """The chunk leaves every slot, its rows past ``max_seq_len`` and its
    attention probabilities, written by other examples."""
    config = small_config(num_layers=2, dropout_rate=dropout)
    params = init_parameters(config, seed=3)
    rng = np.random.default_rng(6)
    L = config.max_seq_len
    seqs1 = [rng.integers(0, config.vocab_size, n) for n in (L, 5, L, L - 2)]
    seqs2 = [rng.integers(0, config.vocab_size, n) for n in (L, 0, 7, L)]
    workspace = Workspace(config, 4 * L)
    forward(params, config, seqs1, seqs2, workspace=workspace)
    seq1, seq2 = rng.integers(0, config.vocab_size, (2, L - 3))
    target = rng.random(3)
    run = dict(dropout_enabled=dropout > 0.0, rng_seed=2)
    loss, grads = backward(params, config, seq1, seq2, target, **run, workspace=_poisoned(config))
    reused_loss, reused_grads = backward(params, config, seq1, seq2, target, **run,
                                         workspace=workspace)
    assert np.isfinite(grads.flat).all()
    assert reused_loss == loss
    assert reused_grads.flat.tobytes() == grads.flat.tobytes()


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_a_packed_pass_gives_each_example_the_bytes_of_its_pass_alone(mode, dropout):
    """``chunks`` packs the examples as training does: several to a chunk,
    one without context among them, a one-row sequence alone and a chunk at
    capacity. Each chunk's forward outputs are each example's alone, its
    losses each example's, and its gradient the bytes of one call per
    example added in order, from a workspace whose unwritten values are NaN.
    At model_dim 32 a chunk's products are large enough that OpenBLAS
    computes a product with a transposed operand otherwise than over one
    example's rows alone."""
    config = small_config(mode=mode, num_layers=2, dropout_rate=dropout, model_dim=32,
                          ffn_dim=64)
    params = init_parameters(config, seed=3)
    rng = np.random.default_rng(8)
    L = config.max_seq_len
    lengths = [(L, L), (5, 0), (L - 2, 7), (1, 3), (4, 1), (L, L), (L, L), (L, L), (L, L),
               (L - 1, L), (2, 2)]
    if mode == "single":
        lengths = [(n1, 0) for n1, _ in lengths[:4] + lengths[5:]]
    examples = [SimpleNamespace(seq1=rng.integers(0, config.vocab_size, n1),
                                seq2=rng.integers(0, config.vocab_size, n2))
                for n1, n2 in lengths]
    targets = rng.random((len(examples), 3))
    seeds = list(range(20, 20 + len(examples)))
    workspace = _poisoned(config, 4 * L)
    runs = list(chunks(examples, workspace.capacity))
    sizes = [sum(len(e.seq1) for e in examples[run]) for run in runs]
    assert max(run.stop - run.start for run in runs) >= 3 and workspace.capacity in sizes
    assert slice(3, 4) in runs  # the one-row sequence
    run_kw = dict(dropout_enabled=dropout > 0.0)
    packed, alone = params.zeros_like(), params.zeros_like()
    for run in runs:
        seqs1, seqs2 = [e.seq1 for e in examples[run]], [e.seq2 for e in examples[run]]
        outputs = forward(params, config, seqs1, seqs2, **run_kw, rng_seed=seeds[run],
                          workspace=workspace).outputs.copy()
        losses, packed = backward(params, config, seqs1, seqs2, targets[run], **run_kw,
                                  rng_seed=seeds[run], grads=packed, workspace=workspace)
        for i, (seq1, seq2, target, seed) in enumerate(zip(seqs1, seqs2, targets[run],
                                                           seeds[run])):
            out = forward(params, config, seq1, seq2, **run_kw, rng_seed=seed).outputs
            assert out.tobytes() == outputs[i].tobytes(), (run, i)
            loss, alone = backward(params, config, seq1, seq2, target, **run_kw, rng_seed=seed,
                                   grads=alone)
            assert loss == losses[i], (run, i)
        assert np.isfinite(packed.flat).all(), run
        assert packed.flat.tobytes() == alone.flat.tobytes(), run


def test_a_chunk_is_checked_example_by_example():
    config = small_config(dropout_rate=0.1)
    params = init_parameters(config, seed=0)
    workspace = Workspace(config, 4 * config.max_seq_len)
    ok = np.arange(5)
    for seeds in (0, [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="a chunk of 2 examples needs a seed per example"):
            forward(params, config, [ok, ok], [ok, ok], dropout_enabled=True, rng_seed=seeds,
                    workspace=workspace)
    too_long = np.arange(config.max_seq_len + 1)
    for seqs1, seqs2, message in [
        ([ok, ok[:0], ok], [ok, ok, ok], "example 1: seq1 must not be empty"),
        ([ok, ok, ok], [ok, ok, too_long], "example 2: seq2: length 13 exceeds max_seq_len 12"),
        ([ok, ok.reshape(1, -1)], [ok, ok], "example 1: seq1: ids must be 1-d"),
        ([ok, ok], [ok], "as many seq2s as seq1s"),
        ([], [], "at least one"),
        ([np.arange(12)] * 5, [ok] * 5, "60 seq1 rows and 25 seq2 rows do not both fit"),
    ]:
        with pytest.raises(ShapeMismatch, match=message):
            forward(params, config, seqs1, seqs2, workspace=workspace)
    single = small_config(mode="single")
    with pytest.raises(ShapeMismatch, match="example 1: seq2 must be empty in single mode"):
        forward(init_parameters(single, seed=0), single, [ok, ok], [ok[:0], ok],
                workspace=Workspace(single, 4 * single.max_seq_len))
    with pytest.raises(ValueError, match="at least max_seq_len"):
        Workspace(config, config.max_seq_len - 1)


def test_a_warm_backward_barely_allocates():
    """At the benchmark's synth size, a second backward pass in the same
    workspace peaks at under a tenth of what the first pass, workspace
    included, allocated: nothing that scales with a sequence or the model is
    made per example."""
    config = ModelConfig(vocab_size=55, max_seq_len=64, model_dim=32, num_layers=1,
                         num_heads=4, ffn_dim=128, num_cross_heads=4, dropout_rate=0.1)
    params = init_parameters(config, seed=0)
    grads = params.zeros_like()
    rng = np.random.default_rng(1)
    seq1, seq2 = rng.integers(0, config.vocab_size, (2, config.max_seq_len - 2))
    target = rng.random(3)

    def run(workspace):
        backward(params, config, seq1, seq2, target, dropout_enabled=True, rng_seed=1,
                 grads=grads, workspace=workspace)

    tracemalloc.start()
    try:
        workspace = Workspace(config)
        run(workspace)
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run(workspace)
        second = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert second < 0.1 * first
