"""Parallel runtimes: MPI, OpenMP, PThreads, and ExaML's scheme.

Cost models for collectives and fork-join synchronisation (calibrated to
the paper's measured latencies), the canonical run configurations of the
evaluation (flat MPI, hybrid MPI x OpenMP, PThreads fork-join), the
trace-driven end-to-end run model behind Table III, and one sliced
parallel engine (:class:`SlicedEngine`) whose two sync policies are
RAxML-Light's fork-join (:class:`ForkJoinEngine`) and ExaML's
communicate-only-at-reductions scheme (:class:`DistributedEngine`), on
simulated, thread or process substrates, bit-identical to the serial
engine.
"""

from .distribute import SiteDistribution, distribute_block, distribute_cyclic
from .distributed import DistributedEngine
from .examl import ExaMLModel, RunPrediction
from .forkjoin import EXECUTION_MODES, ForkJoinEngine, merged_backend_profile
from .pool import (
    BarrierStats,
    SumBufferHandle,
    WorkerFailure,
    WorkerPool,
    WorkerRestart,
    slice_cat,
)
from .shm import ArenaLayout, SharedArena, active_arena_segments
from .sliced import SlicedEngine
from .hybrid import (
    MIC_ONCARD_MPI,
    ParallelConfig,
    examl_cpu,
    examl_mic_flat,
    examl_mic_hybrid,
    raxml_light_pthreads,
)
from .openmp import CPU_OPENMP, MIC_OPENMP, OpenMPModel
from .pthreads import CPU_PTHREADS, MIC_PTHREADS, ForkJoinModel
from .simmpi import (
    INFINIBAND_QLOGIC,
    PCIE_MIC_MIC,
    PCIE_MIC_MIC_OLD_MPI,
    SHARED_MEMORY,
    Interconnect,
    SimMPI,
    allreduce_time,
)

__all__ = [
    "SiteDistribution",
    "distribute_block",
    "distribute_cyclic",
    "DistributedEngine",
    "ExaMLModel",
    "SlicedEngine",
    "EXECUTION_MODES",
    "ForkJoinEngine",
    "merged_backend_profile",
    "BarrierStats",
    "SumBufferHandle",
    "WorkerFailure",
    "WorkerPool",
    "WorkerRestart",
    "slice_cat",
    "ArenaLayout",
    "SharedArena",
    "active_arena_segments",
    "RunPrediction",
    "MIC_ONCARD_MPI",
    "ParallelConfig",
    "examl_cpu",
    "examl_mic_flat",
    "examl_mic_hybrid",
    "raxml_light_pthreads",
    "CPU_OPENMP",
    "MIC_OPENMP",
    "OpenMPModel",
    "CPU_PTHREADS",
    "MIC_PTHREADS",
    "ForkJoinModel",
    "INFINIBAND_QLOGIC",
    "PCIE_MIC_MIC",
    "PCIE_MIC_MIC_OLD_MPI",
    "SHARED_MEMORY",
    "Interconnect",
    "SimMPI",
    "allreduce_time",
]
