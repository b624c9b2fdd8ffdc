"""Neural recalibration toolkit for fixed multi-camera infrared rigs.

Every module passes cameras as ``(..., 21)`` arrays in the layout that
``geometry`` defines.

Submodules
----------
geometry   the 21-parameter camera layout, batched projection and its Jacobian
scene      rig/object definitions, rig placement, perturbation, pose synthesis
nn         point-based transformer as stages with written-out backwards
           composed into one pullback, optimizer, checkpoints
losses     parameter / geodesic / reprojection losses and the compound loss
training   training loop, evaluation, decalibration detection
errors     exception types shared across the toolkit
"""

__version__ = "0.1.0"
