"""MPSoC platform description.

Models the paper's experimental server: four 8-core Intel Xeon E5-2667
processors with per-core DVFS over {2.9, 3.2, 3.6} GHz and 10 us
transition latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.platform.power import GHZ, PowerModel


@dataclass(frozen=True)
class MpsocConfig:
    """Static platform parameters."""

    num_sockets: int = 4
    cores_per_socket: int = 8
    frequencies_hz: Tuple[float, ...] = (2.9 * GHZ, 3.2 * GHZ, 3.6 * GHZ)
    dvfs_latency_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.num_sockets <= 0 or self.cores_per_socket <= 0:
            raise ValueError("socket/core counts must be positive")
        if not self.frequencies_hz:
            raise ValueError("need at least one frequency level")
        if sorted(self.frequencies_hz) != list(self.frequencies_hz):
            raise ValueError("frequencies must be ascending")
        if self.dvfs_latency_s < 0:
            raise ValueError("DVFS latency must be non-negative")

    @property
    def num_cores(self) -> int:
        return self.num_sockets * self.cores_per_socket

    @property
    def f_min(self) -> float:
        return self.frequencies_hz[0]

    @property
    def f_max(self) -> float:
        return self.frequencies_hz[-1]


#: The paper's platform.
XEON_E5_2667 = MpsocConfig()


@dataclass
class Core:
    """One physical core with its current DVFS setting."""

    core_id: int
    socket_id: int
    frequency_hz: float

    def set_frequency(self, frequency_hz: float, config: MpsocConfig) -> None:
        if frequency_hz not in config.frequencies_hz:
            raise ValueError(
                f"frequency {frequency_hz} not an available level "
                f"{config.frequencies_hz}"
            )
        self.frequency_hz = frequency_hz


class Mpsoc:
    """A multiprocessor system-on-chip instance."""

    def __init__(
        self,
        config: MpsocConfig = XEON_E5_2667,
        power_model: PowerModel = None,
    ):
        self.config = config
        self.power_model = power_model if power_model is not None else PowerModel()
        self.cores: List[Core] = [
            Core(
                core_id=i,
                socket_id=i // config.cores_per_socket,
                frequency_hz=config.f_max,
            )
            for i in range(config.num_cores)
        ]

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]
