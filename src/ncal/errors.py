"""Exception types shared across the toolkit."""


class NcalError(Exception):
    """Base class for all toolkit errors."""


class DegenerateRotation(NcalError):
    """A 6D rotation vector cannot be orthogonalized (zero or parallel columns)."""


class DegenerateLookAt(NcalError):
    """Look-at construction failed: eye and target coincide."""


class SynthesisStalled(NcalError):
    """Pose rejection rate too high; the rig/object/radius combination is infeasible."""


class BadObjectFile(NcalError):
    """A calibration-object or rig definition file is malformed."""


class ShapeMismatch(NcalError):
    """Tensor or array shapes are inconsistent with the operation's contract."""


class GraphCycle(NcalError):
    """The autodiff graph contains a cycle (impossible by construction; indicates a bug)."""


class CorruptCheckpoint(NcalError):
    """Checkpoint file failed magic, hash, or structural validation."""


class UnsupportedVersion(CorruptCheckpoint):
    """Checkpoint format version is not supported by this build."""


class NonFiniteLoss(NcalError):
    """Training produced a NaN/inf loss value or gradient norm."""

    def __init__(self, epoch, batch_seed, message=None):
        self.epoch = epoch
        self.batch_seed = batch_seed
        super().__init__(
            message or f"non-finite loss at epoch {epoch} (batch seed {batch_seed})"
        )


class ConfigError(NcalError):
    """Run configuration is invalid or inconsistent."""
