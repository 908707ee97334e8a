"""Executable device models: build a VM for one core of a platform.

Bridges the Table I :class:`~repro.perf.platforms.PlatformSpec` data to
the cycle-level machinery: a :class:`Device` wraps a spec and
manufactures :class:`~repro.mic.vm.VectorMachine` instances whose ISA,
cache sizes, and DRAM model match that platform, plus the unit
conversions (cycles to seconds at the spec's clock).
"""

from __future__ import annotations

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .memory import DramModel
from .vm import VectorMachine

if TYPE_CHECKING:  # avoid a circular import at runtime (platforms needs isa)
    from ..perf.platforms import PlatformSpec

__all__ = ["Device", "xeon_phi_device", "xeon_e5_device"]


@dataclass
class Device:
    """A platform with factories for per-core simulation."""

    spec: "PlatformSpec"

    def dram_model(self) -> DramModel:
        s = self.spec
        return DramModel(
            name=f"dram-{s.name}",
            latency_cycles=s.dram_latency_ns * s.clock_ghz,
            bytes_per_cycle_per_core=s.bytes_per_cycle_per_core,
        )

    def make_vm(self, memory_doubles: int = 1 << 20) -> VectorMachine:
        """A VM modelling one hardware thread of one core."""
        s = self.spec
        if s.isa is None:
            raise ValueError(f"{s.name} is a reference-only platform (no ISA)")
        return VectorMachine(
            isa=s.isa,
            dram=self.dram_model(),
            l1_bytes=s.l1_bytes,
            l2_bytes=s.l2_bytes,
            memory_doubles=memory_doubles,
        )


def xeon_phi_device() -> Device:
    """Convenience: a single Xeon Phi 5110P card."""
    from ..perf.platforms import XEON_PHI_5110P_1S

    return Device(XEON_PHI_5110P_1S)


def xeon_e5_device() -> Device:
    """Convenience: the 2S E5-2680 baseline."""
    from ..perf.platforms import XEON_E5_2680_2S

    return Device(XEON_E5_2680_2S)
