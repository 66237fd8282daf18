"""Thread allocation and DVFS: the paper's Algorithm 2 and the
Khan et al. (IEEE TVLSI 2016, ref [19]) baseline."""

from repro.allocation.demand import UserDemand, cores_needed
from repro.allocation.proposed import ProposedAllocator, AllocationResult
from repro.allocation.baseline_khan import KhanAllocator, khan_tiling

__all__ = [
    "UserDemand",
    "cores_needed",
    "ProposedAllocator",
    "AllocationResult",
    "KhanAllocator",
    "khan_tiling",
]
