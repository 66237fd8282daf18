"""Name-based registry of motion search algorithms.

Used by the encoder configuration and the benchmark harness to select
algorithms by string (e.g. on a command line).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.motion.base import MotionSearch
from repro.motion.cross import CrossSearch
from repro.motion.full_search import FullSearch
from repro.motion.hexagon import HexagonOrientation, HexagonSearch
from repro.motion.one_at_a_time import OneAtATimeSearch
from repro.motion.tz_search import TZSearch

SEARCH_REGISTRY: Dict[str, Callable[[], MotionSearch]] = {
    "full": FullSearch,
    "tz": TZSearch,
    "cross": CrossSearch,
    "one_at_a_time": OneAtATimeSearch,
    "hexagon": lambda: HexagonSearch(HexagonOrientation.HORIZONTAL),
    "hexagon_horizontal": lambda: HexagonSearch(HexagonOrientation.HORIZONTAL),
    "hexagon_vertical": lambda: HexagonSearch(HexagonOrientation.VERTICAL),
    "hexagon_rotating": lambda: HexagonSearch(HexagonOrientation.ROTATING),
}


def get_search(name: str) -> MotionSearch:
    """Instantiate a search algorithm by name."""
    try:
        factory = SEARCH_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SEARCH_REGISTRY))
        raise ValueError(f"unknown search {name!r}; known: {known}") from None
    return factory()
