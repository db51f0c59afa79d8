"""Ensembles of small segmentation networks whose activation layers are
drawn from a pool of 17 parametric functions, trained independently and
fused by averaging their softmax outputs."""

from .activations import ActivationKind, ActivationState, act_backward, act_forward, act_init, default_pool
from .data import Dataset, Sample, augment, load_dir, resize_for_train, resize_pred_back, split, synth_blobs
from .ensemble import Ensemble, EnsembleSpec, ensemble_evaluate, fuse_probs, train_ensemble
from .gradcheck import gradcheck
from .losses import TrainConfig, dice_loss, sgd_step, train_model, weighted_ce
from .metrics import ConfusionCounts, MetricReport, confusion, evaluate_set, metrics_from_counts
from .network import Model, NetworkConfig, assign_activations, build_model, load_model, save_model
from .ops import ConvSpec, conv2d, softmax_channel, upsample_bilinear

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "ActivationState",
    "ConfusionCounts",
    "ConvSpec",
    "Dataset",
    "Ensemble",
    "EnsembleSpec",
    "MetricReport",
    "Model",
    "NetworkConfig",
    "Sample",
    "TrainConfig",
    "act_backward",
    "act_forward",
    "act_init",
    "assign_activations",
    "augment",
    "build_model",
    "confusion",
    "conv2d",
    "default_pool",
    "dice_loss",
    "ensemble_evaluate",
    "evaluate_set",
    "fuse_probs",
    "gradcheck",
    "load_dir",
    "load_model",
    "metrics_from_counts",
    "resize_for_train",
    "resize_pred_back",
    "save_model",
    "sgd_step",
    "softmax_channel",
    "split",
    "synth_blobs",
    "train_ensemble",
    "train_model",
    "upsample_bilinear",
    "weighted_ce",
]
