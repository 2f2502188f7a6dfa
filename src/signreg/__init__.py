"""Jacobian-based input regularization with baselines and evaluation protocols."""

from .tensor import Rng, ShapeError, Tensor
from .autodiff import Tape, param_gradients, summed_jacobian, vjp
from .nn import (Model, attach_uncertainty_head, build_basic_cnn, build_model,
                 build_small_mlp, load_checkpoint, params_checksum, save_checkpoint)
from .sign import NonFiniteDeltaError, SignConfig, delta_only_dataset, transform_dataset
from .augment import CorruptionSpec, MixupConfig, corrupt
from .datasets import (DatasetSplit, NormStats, Sample, load_cifar10_binary,
                       load_container, load_ood_directory, make_synthetic_blobs,
                       normalize, save_container)
from .training import TrainConfig, TrainReport, fit, sign_pipeline, train
from .evalharness import (EvalReport, evaluate, ood_evaluate, project_features,
                          robustness_suite, transferability_protocol)

__version__ = "0.1.0"
