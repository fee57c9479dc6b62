"""Desk-scale CTC recognizer with character- and syllable-level intermediate
predictions fed back into the encoder stack."""

from .labels import BLANK_ID, BLANK_TOKEN, EditCounts, Vocabulary, edit_distance, error_rate
from .ctc import CtcResult, brute_force_loss, ctc_loss, greedy_decode
from .diffcore import ParamStore, Tensor, backward, grad_check
from .encoder import EncoderModel, ForwardOutput, ModelConfig, PlacementConfig
from .synthdata import ToyLanguage, Utterance, generate_dataset, make_language
from .trainer import (
    TrainConfig, TrainResult, adam_moments, adam_step, average_checkpoints, noam_lr, total_loss, train,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK_ID",
    "BLANK_TOKEN",
    "CtcResult",
    "EditCounts",
    "EncoderModel",
    "ForwardOutput",
    "ModelConfig",
    "ParamStore",
    "PlacementConfig",
    "Tensor",
    "ToyLanguage",
    "TrainConfig",
    "TrainResult",
    "Utterance",
    "Vocabulary",
    "adam_moments",
    "adam_step",
    "average_checkpoints",
    "backward",
    "brute_force_loss",
    "ctc_loss",
    "edit_distance",
    "error_rate",
    "generate_dataset",
    "grad_check",
    "greedy_decode",
    "make_language",
    "noam_lr",
    "total_loss",
    "train",
]
