"""The point-based calibration network: parameters and nodes with
written-out gradients, the model, its optimizer and checkpoints."""

from .autodiff import Tensor, constant, parameter
from .model import PtModel, PtModelConfig

__all__ = ["Tensor", "constant", "parameter", "PtModel", "PtModelConfig"]
