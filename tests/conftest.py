import os
import struct

import numpy as np
import pytest

from mixvae import train
from mixvae.evaluation import GRID_MAGIC
from mixvae.model import Architecture, backward, elbo, init_params, supervised_elbo
from mixvae.rng import RngState
from mixvae.train import grad_rel_errors

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def find_mnist_dir():
    """Directory holding the four MNIST IDX files (optionally .gz), or None."""
    candidates = [os.environ.get("MIXVAE_DATA"), "data", "/root/data", "."]
    for base in candidates:
        if not base:
            continue
        if all(os.path.exists(os.path.join(base, f))
               or os.path.exists(os.path.join(base, f + ".gz"))
               for f in MNIST_FILES):
            return base
    return None


MNIST_DIR = find_mnist_dir()
needs_mnist = pytest.mark.skipif(
    MNIST_DIR is None,
    reason="MNIST IDX files not found; set MIXVAE_DATA to a directory with "
           "train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte, "
           "t10k-labels-idx1-ubyte")


def tiny_arch(d=6, n_z=2, k_max=4):
    return Architecture(input_dim=d, encoder=(5, 4), n_z=n_z, decoder=(4, 5), k_max=k_max)


def tiny_params(seed=0, k=3, d=6, n_z=2, k_max=4, spread_biases=True):
    """Small random net; biases and priors perturbed so their gradients are live."""
    rng = RngState(seed, (17,))
    params = init_params(tiny_arch(d, n_z, k_max), rng, k_init=k)
    if spread_biases:
        for name, buf in params.buffers():
            if "b." in name or "prior" in name or name == "task_b":
                buf += 0.3 * rng.normal(buf.shape)
    return params


@pytest.fixture
def rng():
    return RngState(123, (99,))


@pytest.fixture
def corrupt_lat_w(monkeypatch):
    """The gradcheck runner sees `lat_w` gradients off by 1e-2, so its failure path runs."""
    real = train.backward

    def backward_off(*args, **kwargs):
        loss, grads, bd = real(*args, **kwargs)
        grads["lat_w"] = grads["lat_w"] + 1e-2
        return loss, grads, bd
    monkeypatch.setattr(train, "backward", backward_off)


def load_grid_matrix(path):
    """The matrix `evaluation.save_grid_matrix` wrote to path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:6] == GRID_MAGIC, f"{path} is not a raw matrix file"
    rows, cols = struct.unpack_from("<QQ", blob, 6)
    return np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=22).reshape(rows, cols)


def random_inputs(n, d, seed=5):
    return RngState(seed, (31,)).uniform(0.02, 0.98, (n, d))


def forward_loss(x, params, eps, y_obs=None):
    """The loss backward() returns, from the forward pass alone: the
    negative batch mean of elbo().total, or of supervised_elbo() when
    y_obs is given."""
    if y_obs is None:
        return float(-np.mean(elbo(x, params, None, eps=eps).total))
    return float(-np.mean(supervised_elbo(x, y_obs, params, None, eps=eps)))


def fd_check(params, x, eps, y_obs=None, h=1e-5):
    """Max relative error of every analytic gradient buffer against
    central differences of the same fixed-noise loss. forward_loss
    evaluates that loss at about a third of the cost of backward()."""
    _, grads, _ = backward(x, params, None, y_obs=y_obs, eps=eps)
    return grad_rel_errors(params, grads, lambda p: forward_loss(x, p, eps, y_obs), h)
