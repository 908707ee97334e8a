"""Platform descriptors — the paper's Table I as executable data.

Every number below is taken from Table I of the paper ("Specifications
of CPUs and accelerators used for performance evaluation"); derived
quantities (per-core bandwidth share, peak flops/cycle) are computed,
not hard-coded, so the cost models stay consistent with the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mic.isa import AVX256, MIC512, VectorISA

__all__ = [
    "PlatformSpec",
    "XEON_E5_2630_2S",
    "XEON_E5_2680_2S",
    "XEON_PHI_5110P_1S",
    "XEON_PHI_5110P_2S",
    "NVIDIA_K20",
    "TABLE1_PLATFORMS",
    "BASELINE",
]


@dataclass(frozen=True)
class PlatformSpec:
    """One row of Table I plus the microarchitectural facts models need."""

    name: str
    peak_dp_gflops: float
    cores: int
    clock_ghz: float
    memory_gb: float
    memory_bw_gbs: float
    max_tdp_w: float
    approx_price_usd: float
    isa: VectorISA | None = None  # None for reference-only rows (K20)
    threads_per_core: int = 1
    sockets_or_cards: int = 1
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    dram_latency_ns: float = 80.0
    #: Fraction of peak DRAM bandwidth sustainable by streaming kernels.
    bandwidth_efficiency: float = 0.8

    @property
    def flops_per_cycle_per_core(self) -> float:
        """Peak DP flops per cycle per core implied by Table I."""
        return self.peak_dp_gflops / self.cores / self.clock_ghz

    @property
    def bytes_per_cycle_per_core(self) -> float:
        """Sustainable DRAM bytes per core-cycle (chip BW shared evenly)."""
        return (
            self.memory_bw_gbs
            * self.bandwidth_efficiency
            / self.cores
            / self.clock_ghz
        )

    def energy_wh(self, runtime_s: float) -> float:
        """The paper's energy estimate: ``E[Wh] = MaxTDP * t / 3600``."""
        return self.max_tdp_w * runtime_s / 3600.0


# Table I rows ---------------------------------------------------------------

XEON_E5_2630_2S = PlatformSpec(
    name="2S Xeon E5-2630",
    peak_dp_gflops=220.0,
    cores=12,
    clock_ghz=2.30,
    memory_gb=32.0,
    memory_bw_gbs=85.2,
    max_tdp_w=190.0,
    approx_price_usd=1224.0,
    isa=AVX256,
    threads_per_core=1,  # hyper-threading off in the paper's runs (1 rank/core)
    sockets_or_cards=2,
    l2_bytes=256 * 1024,
    dram_latency_ns=80.0,
)

XEON_E5_2680_2S = PlatformSpec(
    name="2S Xeon E5-2680",
    peak_dp_gflops=346.0,
    cores=16,
    clock_ghz=2.70,
    memory_gb=32.0,
    memory_bw_gbs=102.4,
    max_tdp_w=260.0,
    approx_price_usd=3486.0,
    isa=AVX256,
    threads_per_core=1,
    sockets_or_cards=2,
    l2_bytes=256 * 1024,
    dram_latency_ns=80.0,
)

XEON_PHI_5110P_1S = PlatformSpec(
    name="1S Xeon Phi 5110P",
    peak_dp_gflops=1074.0,
    cores=60,
    clock_ghz=1.053,
    memory_gb=8.0,
    memory_bw_gbs=320.0,
    max_tdp_w=225.0,
    approx_price_usd=2649.0,
    isa=MIC512,
    threads_per_core=4,
    sockets_or_cards=1,
    l2_bytes=512 * 1024,
    dram_latency_ns=300.0,
    # GDDR5 on KNC sustains a smaller fraction of its huge peak
    bandwidth_efficiency=0.55,
)

XEON_PHI_5110P_2S = PlatformSpec(
    name="2S Xeon Phi 5110P",
    peak_dp_gflops=2148.0,
    cores=120,
    clock_ghz=1.053,
    memory_gb=16.0,
    memory_bw_gbs=640.0,
    max_tdp_w=450.0,
    approx_price_usd=5298.0,
    isa=MIC512,
    threads_per_core=4,
    sockets_or_cards=2,
    l2_bytes=512 * 1024,
    dram_latency_ns=300.0,
    bandwidth_efficiency=0.55,
)

#: Listed in Table I "for reference only" — no ISA model, never executed.
NVIDIA_K20 = PlatformSpec(
    name="NVIDIA K20 (ref.)",
    peak_dp_gflops=1170.0,
    cores=2496,
    clock_ghz=0.706,
    memory_gb=5.0,
    memory_bw_gbs=208.0,
    max_tdp_w=225.0,
    approx_price_usd=2800.0,
    isa=None,
)

TABLE1_PLATFORMS = (
    XEON_E5_2630_2S,
    XEON_E5_2680_2S,
    XEON_PHI_5110P_1S,
    XEON_PHI_5110P_2S,
    NVIDIA_K20,
)

#: The paper's primary performance baseline (all speedups relative to it).
BASELINE = XEON_E5_2680_2S
