"""Bottom-up baselines: DPccp (paper baseline) and DPconv.

DPconv (arXiv 2409.08013) is the subset-convolution fast path for
``C_out``-shaped cost models.
"""

from repro.baselines.dpccp import DPccp, enumerate_csg, enumerate_csg_cmp_pairs
from repro.baselines.dpconv import DPconv

__all__ = [
    "DPccp",
    "DPconv",
    "enumerate_csg",
    "enumerate_csg_cmp_pairs",
]
