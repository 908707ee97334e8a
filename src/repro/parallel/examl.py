"""ExaML run model: trace-driven end-to-end time prediction.

Combines the pieces into the paper's Table III machinery:

    total = sum over kernels of  calls x [ data-parallel site time
                                           + per-region sync
                                           + per-call serial overhead
                                           + per-call cold-stream ramp ]
            + reductions x AllReduce(ranks, interconnects)

* the data-parallel term comes from the roofline cost model
  (:class:`repro.perf.costmodel.CostModel`), spread over the
  configuration's *effective cores*;
* sync is the OpenMP/PThreads region overhead (per kernel call — every
  kernel call is one parallel region in ExaML's hybrid mode);
* serial is the non-parallelised per-invocation work (P-matrices,
  traversal bookkeeping) at the platform's scalar speed;
* ramp is the cold-stream latency penalty: the first
  ``prefetch-distance`` site blocks of each streamed input miss DRAM
  without cover.  It is negligible for big per-worker chunks and
  dominant when 236 workers each own a few dozen sites — the paper's
  Sec. VI-B2 explanation for the small-alignment losses;
* reductions pay the (hierarchical) AllReduce of Sec. VI-B3.

The same class predicts RAxML-Light runs (fork-join sync, single rank)
and the flat-MPI ablation, because all of those differ only in the
:class:`~repro.parallel.hybrid.ParallelConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..obs import spans as _obs
from ..perf.costmodel import CostModel
from ..perf.platforms import PlatformSpec
from ..perf.trace import KERNELS, KernelTrace
from .hybrid import ParallelConfig

__all__ = ["RunPrediction", "ExaMLModel", "STREAMS_PER_KERNEL"]

#: Streamed input arrays per kernel (for the cold-stream ramp): newview
#: and derivativeSum read two CLAs; evaluate reads two; derivativeCore
#: reads the sum buffer only.
STREAMS_PER_KERNEL = {
    "newview": 2,
    "evaluate": 2,
    "derivative_sum": 2,
    "derivative_core": 1,
}

#: Which kernels trigger an MPI reduction in ExaML (per Sec. V-D /
#: VI-B3): evaluate sums partial likelihoods, derivativeCore sums the
#: two derivatives.
REDUCING_KERNELS = ("evaluate", "derivative_core")

#: Cache lines per 16-double site block.
LINES_PER_SITE = 2

#: Site blocks left uncovered by software prefetch at each stream start.
PREFETCH_DISTANCE = 8


@dataclass(frozen=True)
class RunPrediction:
    """Predicted wall-clock decomposition of one tree-search run."""

    platform: str
    config: str
    n_sites: int
    compute_s: float
    sync_s: float
    serial_s: float
    ramp_s: float
    comm_s: float
    per_kernel_s: dict[str, float]

    @property
    def total_s(self) -> float:
        return (
            self.compute_s + self.sync_s + self.serial_s + self.ramp_s + self.comm_s
        )


@dataclass(frozen=True)
class ExaMLModel:
    """Trace-driven performance model for one platform + configuration."""

    platform: PlatformSpec
    config: ParallelConfig

    def cost_model(self) -> CostModel:
        return CostModel(self.platform)

    def cla_memory_bytes(self, n_sites: int, n_taxa: int) -> float:
        """CLA footprint: one 16-double block per site per internal node."""
        return (n_taxa - 2) * n_sites * 16 * 8

    def fits_in_memory(self, n_sites: int, n_taxa: int) -> bool:
        """Does the working set fit the per-card/system memory (Table I)?

        The paper notes the 4000K dataset "already uses *all* available
        memory" of the 8 GB card: the CLA footprint there is ~6.7 GB and
        tip codes, sum buffers and traversal state add ~15% — hence the
        1.15 factor (4000K x 15 taxa fits exactly as the paper observed;
        anything much larger does not).
        """
        per_domain_sites = n_sites / max(
            1, self.config.n_ranks // self.config.ranks_per_domain
        )
        need = 1.15 * self.cla_memory_bytes(per_domain_sites, n_taxa)
        return need <= self.platform.memory_gb * 1e9

    def ramp_seconds_per_call(self, kernel: str, sites_per_core: float) -> float:
        """Cold-stream latency at the start of each worker's chunk."""
        uncovered_sites = min(PREFETCH_DISTANCE, sites_per_core)
        lines = uncovered_sites * LINES_PER_SITE * STREAMS_PER_KERNEL[kernel]
        latency_cycles = self.platform.dram_latency_ns * self.platform.clock_ghz
        # 4 outstanding misses per core (MLP of the in-order KNC with two
        # active threads; OoO Xeons sustain ~10).
        mlp = 4.0 if self.platform.isa and self.platform.isa.name == "mic512" else 10.0
        return lines * latency_cycles / mlp / (self.platform.clock_ghz * 1e9)

    @_obs.traced("examl.predict")
    def predict(self, trace: KernelTrace, n_sites: int) -> RunPrediction:
        """Predict a full tree-search run at alignment width ``n_sites``."""
        if n_sites <= 0:
            raise ValueError("n_sites must be positive")
        cost = self.cost_model()
        cores = self.config.effective_cores(self.platform)
        # Sites are split across ranks *and* threads; the per-core chunk
        # is what one saturated core processes per invocation.
        sites_per_core = ceil(n_sites / cores)

        compute = sync = serial = ramp = comm = 0.0
        per_kernel: dict[str, float] = {}
        sync_per_call = self.config.sync_overhead_s()
        reduction_s = self.config.reduction_time_s()
        for kernel in KERNELS:
            calls = trace.calls[kernel]
            if calls == 0:
                per_kernel[kernel] = 0.0
                continue
            cyc = cost.cycles_per_site(kernel) * sites_per_core
            k_compute = cyc / (self.platform.clock_ghz * 1e9)
            k_serial = cost.serial_overhead_s(kernel)
            k_ramp = self.ramp_seconds_per_call(kernel, sites_per_core)
            k_comm = reduction_s if kernel in REDUCING_KERNELS else 0.0
            per_kernel[kernel] = calls * (
                k_compute + sync_per_call + k_serial + k_ramp + k_comm
            )
            compute += calls * k_compute
            sync += calls * sync_per_call
            serial += calls * k_serial
            ramp += calls * k_ramp
            comm += calls * k_comm
        return RunPrediction(
            platform=self.platform.name,
            config=self.config.name,
            n_sites=n_sites,
            compute_s=compute,
            sync_s=sync,
            serial_s=serial,
            ramp_s=ramp,
            comm_s=comm,
            per_kernel_s=per_kernel,
        )

    @_obs.traced("examl.predict_partitioned")
    def predict_partitioned(
        self, trace: KernelTrace, n_sites: int, n_partitions: int
    ) -> RunPrediction:
        """Predict a run over a partitioned alignment (Sec. V-A / VII).

        The paper warns that many partitions degrade performance through
        "decreasing parallel block size ... and growing communication
        overhead": each kernel invocation becomes ``n_partitions``
        parallel blocks, every one paying its own per-partition serial
        work (transition matrices per partition model) and its own
        cold-stream ramp, while the data-parallel site work stays the
        same in total.  Equal-size partitions are assumed (the
        best case — skewed partitions add imbalance on top).
        """
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        if n_partitions > n_sites:
            raise ValueError("more partitions than sites")
        cost = self.cost_model()
        cores = self.config.effective_cores(self.platform)
        sites_per_part = n_sites / n_partitions
        sites_per_core_part = ceil(sites_per_part / cores)

        compute = sync = serial = ramp = comm = 0.0
        per_kernel: dict[str, float] = {}
        sync_per_call = self.config.sync_overhead_s()
        reduction_s = self.config.reduction_time_s()
        for kernel in KERNELS:
            calls = trace.calls[kernel]
            if calls == 0:
                per_kernel[kernel] = 0.0
                continue
            cyc = (
                cost.cycles_per_site(kernel)
                * sites_per_core_part
                * n_partitions
            )
            k_compute = cyc / (self.platform.clock_ghz * 1e9)
            k_serial = cost.serial_overhead_s(kernel) * n_partitions
            k_ramp = (
                self.ramp_seconds_per_call(kernel, sites_per_core_part)
                * n_partitions
            )
            k_comm = reduction_s if kernel in REDUCING_KERNELS else 0.0
            per_kernel[kernel] = calls * (
                k_compute + sync_per_call + k_serial + k_ramp + k_comm
            )
            compute += calls * k_compute
            sync += calls * sync_per_call
            serial += calls * k_serial
            ramp += calls * k_ramp
            comm += calls * k_comm
        return RunPrediction(
            platform=self.platform.name,
            config=f"{self.config.name} [{n_partitions} partitions]",
            n_sites=n_sites,
            compute_s=compute,
            sync_s=sync,
            serial_s=serial,
            ramp_s=ramp,
            comm_s=comm,
            per_kernel_s=per_kernel,
        )
