"""Neural recalibration toolkit for fixed multi-camera infrared rigs.

Submodules
----------
geometry   projection, distortion, rotation representations, Jacobians
scene      rig/object definitions, pose synthesis, perturbation, batching
nn         dense-tensor autodiff, point-based transformer, optimizer, checkpoints
losses     parameter / geodesic / reprojection losses and the compound loss
training   training loop, evaluation, decalibration detection
errors     exception types shared across the toolkit
"""

__version__ = "0.1.0"
