"""The point-based calibration network: stages with written-out backwards
composed into one pullback, the model, its optimizer and checkpoints."""

from .model import PtModel, PtModelConfig

__all__ = ["PtModel", "PtModelConfig"]
