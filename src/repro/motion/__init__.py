"""Block-matching motion estimation library.

Implements the classical search algorithms surveyed in the paper's
§II-B plus the paper's proposed bio-medical combined search (§III-C2):

* full search (exhaustive; quality upper bound, used in tests)
* TZ search (HEVC reference software; the paper's Table I baseline)
* cross search [13]
* one-at-a-time search [14]
* hexagon-based search [15] — horizontal, vertical and rotating
* the proposed combined search for bio-medical content

All algorithms share a :class:`~repro.motion.base.SearchContext` that
counts SAD evaluations, which feeds the platform cost model.
"""

from repro.motion.base import (
    MotionSearchResult,
    MotionVector,
    SearchContext,
    MotionSearch,
)
from repro.motion.full_search import FullSearch
from repro.motion.tz_search import TZSearch
from repro.motion.cross import CrossSearch
from repro.motion.one_at_a_time import OneAtATimeSearch
from repro.motion.hexagon import HexagonSearch, HexagonOrientation
from repro.motion.proposed import BioMedicalSearchPolicy, ProposedSearchConfig
from repro.motion.registry import get_search, SEARCH_REGISTRY

__all__ = [
    "MotionSearchResult",
    "MotionVector",
    "SearchContext",
    "MotionSearch",
    "FullSearch",
    "TZSearch",
    "CrossSearch",
    "OneAtATimeSearch",
    "HexagonSearch",
    "HexagonOrientation",
    "BioMedicalSearchPolicy",
    "ProposedSearchConfig",
    "get_search",
    "SEARCH_REGISTRY",
]
