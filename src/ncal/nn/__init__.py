"""The point-based calibration network: parameters and nodes with
written-out gradients, the model, its optimizer and checkpoints."""

from .autodiff import Tensor
from .model import PtModel, PtModelConfig

__all__ = ["Tensor", "PtModel", "PtModelConfig"]
