"""Accelerator layer: EXMA accelerator model, baselines, configs, metrics."""

from .baselines import standard_accelerator_suite
from .config import ex_2stage_config, ex_acc_config, exma_full_config
from .exma_accelerator import ExmaAccelerator

__all__ = [
    "ExmaAccelerator",
    "ex_2stage_config",
    "ex_acc_config",
    "exma_full_config",
    "standard_accelerator_suite",
]
