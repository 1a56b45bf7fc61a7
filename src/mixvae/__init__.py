"""Continual unsupervised representation learning with a mixture-of-Gaussians VAE.

A latent categorical variable routes each input to one of K Gaussian
components; the model infers that assignment itself, expands K when a
buffer of poorly-modelled samples fills, and rehearses its own generated
samples (mixture generative replay) to keep earlier concepts alive on
non-stationary streams.
"""

from .adam import AdamState, adam_step
from .config import ExperimentConfig, load_preset, parse_config, preset_names, serialize_config
from .data import Dataset, StreamSpec, load_idx, make_blob_dataset, next_batch
from .evaluation import EvalReport, cluster_accuracy, evaluate
from .expansion import ExpansionState, PoorSampleBuffer, expand, select_parent
from .kernels import finite_difference_grad, softplus
from .model import (
    Architecture,
    ElboBreakdown,
    ModelParams,
    backward,
    elbo,
    generate,
    init_params,
    supervised_elbo,
)
from .replay import Snapshot, UsageCounts, replay_step, take_snapshot
from .rng import RngState, substream
from .train import run_eval, run_gradcheck, run_knn_sweep, run_train

__version__ = "0.1.0"
