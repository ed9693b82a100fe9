"""The parameter layout: every tensor is a view of one flat float64 vector, in
``parameter_shapes`` order, and ``params.bin`` is that vector."""

import math

import numpy as np
import pytest

from argscore.model import (
    ModelParameters,
    ShapeMismatch,
    init_parameters,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from argscore.model.network import parameter_count
from tests.conftest import small_config
from tests.test_checkpoint import _vocab


def _address(a):
    return a.__array_interface__["data"][0]


def _assert_views_of_flat(params, config):
    shapes = parameter_shapes(config)
    assert list(params) == list(shapes)
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    offset = 0
    for name, shape in shapes.items():
        tensor = params[name]
        assert tensor.shape == shape, name
        assert tensor.flags.c_contiguous, name
        assert _address(tensor) == _address(params.flat) + offset * 8, name
        offset += math.prod(shape)
    assert params.flat.size == offset


def _reference_init(config, seed):
    """The per-tensor draw: one array per tensor, in ``parameter_shapes`` order."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gamma"):
            tensors[name] = np.ones(shape)
        elif name.endswith(".beta") or name.rsplit(".", 1)[1].startswith("b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.normal(0.0, 0.02, size=shape)
    return tensors


def test_init_copy_and_zeros_like_are_views_of_flat():
    config = small_config(num_layers=2)
    params = init_parameters(config, 3)
    copied = params.copy()
    zeros = params.zeros_like()
    for p in (params, copied, zeros):
        _assert_views_of_flat(p, config)
    assert not np.shares_memory(copied.flat, params.flat)
    assert not np.shares_memory(zeros.flat, params.flat)
    assert np.array_equal(copied.flat, params.flat)
    assert (zeros.flat == 0.0).all()
    params["head.reasonableness.b"][0] = 7.0  # a write through a view reaches flat only
    assert params.flat[-1] == 7.0 and copied["head.reasonableness.b"][0] == 0.0


def test_loaded_tensors_are_views_of_flat(tmp_path):
    config = small_config()
    params = init_parameters(config, 0)
    save_checkpoint(tmp_path / "ckpt", params, config, _vocab(config))
    loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
    _assert_views_of_flat(loaded, config)
    assert np.array_equal(loaded.flat, params.flat)


def test_params_bin_is_the_flat_vector(tmp_path):
    config = small_config()
    params = init_parameters(config, 5)
    save_checkpoint(tmp_path / "ckpt", params, config, _vocab(config))
    assert (tmp_path / "ckpt" / "params.bin").read_bytes() == params.flat.astype("<f8").tobytes()


def test_init_matches_per_tensor_draw_bitwise():
    config = small_config(num_layers=2)
    params = init_parameters(config, 11)
    reference = _reference_init(config, 11)
    assert list(params) == list(reference)
    for name, tensor in reference.items():
        assert params[name].tobytes() == tensor.tobytes(), name


def test_flat_vector_of_wrong_length_rejected():
    shapes = parameter_shapes(small_config())
    with pytest.raises(ShapeMismatch):
        ModelParameters(np.zeros(parameter_count(shapes) - 1), shapes)
