"""A reused ``Workspace`` gives the bytes of a fresh one, also after a packed
chunk, one call over many examples gives each example's bytes of a call over
it alone, the examples are checked one by one, and a warm pass allocates
almost nothing."""

import tracemalloc

import numpy as np
import pytest

from argscore.model import (EncodedExample, ModelConfig, ShapeMismatch, Workspace, backward,
                            forward, init_parameters)
from argscore.model import network
from tests.conftest import small_config


def _poisoned(config) -> Workspace:
    """A workspace whose every array is NaN: a value read before it is
    written makes a result NaN."""
    workspace = Workspace(config)
    for value in vars(workspace).values():
        for array in value.values() if isinstance(value, dict) else [value]:
            array.fill(np.nan)
    return workspace


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
        example = [EncodedExample(rng.integers(0, config.vocab_size, n1),
                                  rng.integers(0, config.vocab_size, n2))]
        target = rng.random((1, 3))
        seeds = [i] if dropout else None

        fresh = forward(params, config, example, seeds, workspace=_poisoned(config))
        reused = forward(params, config, example, seeds, workspace=workspace)
        assert np.isfinite(fresh).all(), i
        assert reused.tobytes() == fresh.tobytes(), i
        loss, grads = backward(params, config, example, target, seeds,
                               workspace=_poisoned(config))
        reused_loss, reused_grads = backward(params, config, example, target, seeds,
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
    chunk = [EncodedExample(rng.integers(0, config.vocab_size, n1),
                            rng.integers(0, config.vocab_size, n2))
             for n1, n2 in ((L, L), (5, 0), (L, 7), (L - 2, L))]
    workspace = Workspace(config)
    forward(params, config, chunk, workspace=workspace)
    example = [EncodedExample(*rng.integers(0, config.vocab_size, (2, L - 3)))]
    target = rng.random((1, 3))
    seeds = [2] if dropout else None
    loss, grads = backward(params, config, example, target, seeds, workspace=_poisoned(config))
    reused_loss, reused_grads = backward(params, config, example, target, seeds,
                                         workspace=workspace)
    assert np.isfinite(grads.flat).all()
    assert reused_loss == loss
    assert reused_grads.flat.tobytes() == grads.flat.tobytes()


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_a_packed_pass_gives_each_example_the_bytes_of_its_pass_alone(monkeypatch, mode,
                                                                    dropout):
    """One call over more rows than a workspace holds, which ``chunks``
    packs several to a chunk, one without context among them, a one-row
    sequence alone and a chunk at capacity. Its outputs are each example's
    alone, its losses each example's, and its gradient the bytes of one call
    per example added in order, from a workspace whose unwritten values are
    NaN. At model_dim 32 a chunk's products are large enough that OpenBLAS
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
    examples = [EncodedExample(rng.integers(0, config.vocab_size, n1),
                               rng.integers(0, config.vocab_size, n2))
                for n1, n2 in lengths]
    targets = rng.random((len(examples), 3))
    seeds = list(range(20, 20 + len(examples))) if dropout else None
    workspace = _poisoned(config)
    runs = list(network.chunks(examples, workspace.capacity))
    sizes = [sum(len(e.seq1) for e in examples[run]) for run in runs]
    assert max(run.stop - run.start for run in runs) >= 3 and workspace.capacity in sizes
    assert slice(3, 4) in runs  # the one-row sequence
    passes = {"forward": [], "backward": []}
    run_chunk = {name: getattr(network, f"_{name}_chunk") for name in passes}

    def recorder(name):
        def recorded(p, config, chunk, *args, **kwargs):
            passes[name].append(len(chunk))
            return run_chunk[name](p, config, chunk, *args, **kwargs)
        return recorded

    for name in passes:
        monkeypatch.setattr(network, f"_{name}_chunk", recorder(name))
    expected = [run.stop - run.start for run in runs]
    outputs = forward(params, config, examples, seeds, workspace=workspace)
    assert passes == {"forward": expected, "backward": []}
    losses, packed = backward(params, config, examples, targets, seeds, workspace=workspace)
    assert passes == {"forward": expected * 2, "backward": expected}
    monkeypatch.undo()
    alone = params.zeros_like()
    for i, example in enumerate(examples):
        seed = None if seeds is None else seeds[i : i + 1]
        out = forward(params, config, [example], seed)
        assert out.tobytes() == outputs[i : i + 1].tobytes(), i
        (loss,), alone = backward(params, config, [example], targets[i : i + 1], seed,
                                  grads=alone)
        assert loss == losses[i], i
    assert np.isfinite(packed.flat).all()
    assert packed.flat.tobytes() == alone.flat.tobytes()


def test_a_chunk_is_checked_example_by_example():
    """Every example is checked before the first chunk runs: an error names
    the first bad example by its index in the list, and adds nothing to
    ``grads``."""
    config = small_config(dropout_rate=0.1)
    params = init_parameters(config, seed=0)
    grads = params.zeros_like()
    workspace = Workspace(config)
    ok = np.arange(5)
    two = [EncodedExample(ok, ok)] * 2
    for seeds in (0, [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="2 examples need a seed per example"):
            forward(params, config, two, seeds, workspace=workspace)
        with pytest.raises(ValueError, match="2 examples need a seed per example"):
            backward(params, config, two, np.zeros((2, 3)), seeds, grads=grads,
                     workspace=workspace)
    for targets in (np.zeros(3), np.zeros((1, 3)), np.zeros((2, 4))):
        with pytest.raises(ShapeMismatch, match=r"targets must have shape \(2, 3\)"):
            backward(params, config, two, targets, grads=grads, workspace=workspace)
    too_long = np.arange(config.max_seq_len + 1)
    full = np.arange(config.max_seq_len)
    for seqs1, seqs2, message in [
        ([ok, ok[:0], ok], [ok, ok, ok], "example 1: seq1 must not be empty"),
        ([ok, ok, ok], [ok, ok, too_long], "example 2: seq2: length 13 exceeds max_seq_len 12"),
        ([ok, ok.reshape(1, -1)], [ok, ok], "example 1: seq1: ids must be 1-d"),
        # past the first chunk's rows
        ([full] * 5 + [ok], [ok] * 5 + [too_long], "example 5: seq2: length 13 exceeds"),
    ]:
        examples = [EncodedExample(seq1, seq2) for seq1, seq2 in zip(seqs1, seqs2)]
        with pytest.raises(ShapeMismatch, match=message):
            forward(params, config, examples, workspace=workspace)
        with pytest.raises(ShapeMismatch, match=message):
            backward(params, config, examples, np.zeros((len(examples), 3)), grads=grads,
                     workspace=workspace)
    assert not grads.flat.any()
    single = small_config(mode="single")
    with pytest.raises(ShapeMismatch, match="example 1: seq2 must be empty in single mode"):
        forward(init_parameters(single, seed=0), single,
                [EncodedExample(ok, ok[:0]), EncodedExample(ok, ok)])


def test_an_empty_list_gives_no_outputs_and_leaves_grads_untouched():
    config = small_config(dropout_rate=0.1)
    params = init_parameters(config, seed=0)
    assert forward(params, config, [], seeds=[]).shape == (0, 3)
    grads = params.zeros_like()
    grads.flat[...] = 0.5
    losses, returned = backward(params, config, [], np.zeros((0, 3)), seeds=[], grads=grads)
    assert losses == [] and returned is grads
    assert (grads.flat == 0.5).all()


def test_a_warm_backward_barely_allocates():
    """At the benchmark's synth size, a second backward pass in the same
    workspace peaks at under three quarters of one copy of the parameters, a
    bound that does not grow with the workspace's chunk of rows: nothing the
    size of the model, or of two of an example's attention maps, is made per
    example."""
    config = ModelConfig(vocab_size=55, max_seq_len=64, model_dim=32, num_layers=1,
                         num_heads=4, ffn_dim=128, num_cross_heads=4, dropout_rate=0.1)
    params = init_parameters(config, seed=0)
    grads = params.zeros_like()
    rng = np.random.default_rng(1)
    example = [EncodedExample(*rng.integers(0, config.vocab_size, (2, config.max_seq_len - 2)))]
    target = rng.random((1, 3))

    def run(workspace):
        backward(params, config, example, target, [1], grads=grads, workspace=workspace)

    tracemalloc.start()
    try:
        workspace = Workspace(config)
        run(workspace)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run(workspace)
        second = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert second < 0.75 * params.flat.nbytes
