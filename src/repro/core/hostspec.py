"""Host hardware specifications.

The paper uses three x86 servers (§6, §7); density and contention effects
depend on their core counts and RAM sizes, which these presets carry.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """One physical machine."""

    name: str
    cores: int
    memory_gb: int
    #: Cores dedicated to Dom0 (the paper pins them explicitly).
    dom0_cores: int = 1
    #: Dom0's memory reservation, GiB.
    dom0_memory_gb: int = 1

    @property
    def memory_kb(self) -> int:
        return self.memory_gb * 1024 * 1024

    @property
    def dom0_memory_kb(self) -> int:
        return self.dom0_memory_gb * 1024 * 1024

    @property
    def guest_cores(self) -> int:
        return self.cores - self.dom0_cores


#: §6: "an Intel Xeon E5-1630 v3 CPU at 3.7 GHz (4 cores) and 128GB of
#: DDR4 RAM" — one core to Dom0, three to guests.
XEON_E5_1630 = HostSpec(name="xeon-e5-1630v3", cores=4, memory_gb=128,
                        dom0_cores=1)

#: §6: "four AMD Opteron 6376 CPUs at 2.3 GHz (with 16 cores each) and
#: 128GB of DDR3 RAM" — four cores to Dom0, sixty to guests (Fig 10).
AMD_OPTERON_64 = HostSpec(name="amd-opteron-6376x4", cores=64,
                          memory_gb=128, dom0_cores=4)

#: §7.1: "an Intel Xeon E5-2690 v4 2.6 GHz processor (14 cores) and 64GB
#: of RAM" for the use-case experiments.
XEON_E5_2690 = HostSpec(name="xeon-e5-2690v4", cores=14, memory_gb=64,
                        dom0_cores=1)

#: §6.2's checkpoint/migration setup: the 4-core machine with two cores
#: assigned to Dom0 and two to guests.
XEON_E5_1630_2DOM0 = HostSpec(name="xeon-e5-1630v3-2dom0", cores=4,
                              memory_gb=128, dom0_cores=2)

#: Host specs addressable by name from a scenario spec or a cluster
#: config.
HOST_SPECS: typing.Dict[str, HostSpec] = {
    "xeon-e5-1630": XEON_E5_1630,
    "xeon-e5-2690": XEON_E5_2690,
    "amd-opteron-64": AMD_OPTERON_64,
}
