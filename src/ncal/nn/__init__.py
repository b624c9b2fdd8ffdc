"""The point-based calibration network: stages with written-out backwards
composed into one pullback, the model, its optimizer and checkpoints."""

from .autodiff import Tensor
from .model import PtModel, PtModelConfig

__all__ = ["Tensor", "PtModel", "PtModelConfig"]
