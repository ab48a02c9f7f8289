"""Experience-based city map building, at desk scale.

Simulated collection runs are split into subsets, reconstructed into
submaps with GPS- and gravity-prior bundle adjustment, verified against INS
and kinematics, and fused by Sim3 into one geo-aligned, geo-tiled global map.
"""

__version__ = "0.1.0"
