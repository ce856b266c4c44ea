"""Vertex-centric BSP cluster with explicit cost accounting.

This subpackage is the substitute for the paper's self-built MPI
vertex-centric system (Section VI-A, "Environment").  The BSP contract (compute / message
routing / barrier) is executed by one master loop,
:meth:`~repro.pregel.engine.Engine.run`, over
:class:`~repro.pregel.engine.Worker` objects; the two engines differ only
in where those workers live (checkpoints and crash recovery are one hook
the simulator installs, :mod:`repro.pregel.recovery`):

- :class:`~repro.pregel.engine.SimulatorEngine` — one worker in the
  master's process owning every node: deterministic, preserves BSP
  semantics and *counts* computation and communication, converting them
  to simulated seconds via a calibrated
  :class:`~repro.pregel.cost_model.CostModel`; and
- :class:`~repro.pregel.mp.MultiprocessEngine` — the same workers in
  forked processes over a shared-memory CSR, producing the identical
  labels and the identical simulated-clock accounting while the wall
  clock actually drops with cores.
"""

from repro.pregel.cost_model import (
    SCALED_CUTOFF_SECONDS,
    CostModel,
    mpi_cluster_model,
    paper_scale_model,
    shared_memory_model,
)
from repro.pregel.engine import (
    ENGINE_NAMES,
    Cluster,
    ComputeContext,
    Engine,
    FinalizeContext,
    SimulatorEngine,
    SuperstepLimitExceeded,
    resolve_engine,
)
from repro.pregel.metrics import RunStats
from repro.pregel.mp import MultiprocessEngine
from repro.pregel.serial import SerialMeter
from repro.pregel.vertex_program import VertexProgram

__all__ = [
    "ENGINE_NAMES",
    "SCALED_CUTOFF_SECONDS",
    "Cluster",
    "Engine",
    "MultiprocessEngine",
    "SimulatorEngine",
    "resolve_engine",
    "ComputeContext",
    "CostModel",
    "FinalizeContext",
    "RunStats",
    "SerialMeter",
    "SuperstepLimitExceeded",
    "VertexProgram",
    "mpi_cluster_model",
    "paper_scale_model",
    "shared_memory_model",
]
