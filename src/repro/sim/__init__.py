"""Storage simulation substrate (our DiskSim substitute).

* :mod:`repro.sim.kernel` — discrete-event engine.
* :mod:`repro.sim.disk` / :mod:`repro.sim.array` — disks and the array.
* :mod:`repro.sim.cache_sim` — the timed buffer cache.
* :mod:`repro.sim.controller` — the RAID controller's recovery logic.
* :mod:`repro.sim.reconstruction` — serial/SOR batch reconstruction.
* :mod:`repro.sim.topology` — racks, nodes, links: the cluster resource
  model (the single-controller world is its degenerate one-node case).

The cross-rack recovery *scenario* lives one layer up in
:mod:`repro.sim.cluster` (it drives the engine's timed replay, so it
cannot live at this layer without an upward import).  The fast untimed
cache-trace replay is the engine's: :func:`repro.engine.simulate_trace`
and :func:`repro.engine.simulate_cache_trace`.
"""

from .array import ArrayGeometry, DiskArray, FlatGeometry
from .cache_sim import ResponseLog, TimedBufferCache
from .controller import OverheadLog, RAIDController
from .disk import (
    Disk,
    DiskStats,
    FixedLatencyModel,
    SeekRotateTransferModel,
)
from .kernel import (
    AllOf,
    Container,
    Environment,
    Event,
    Interrupt,
    Process,
    Request,
    Resource,
    SimulationError,
    Store,
    Timeout,
)
from .datapath import PayloadOracle, VerifyingDataPath
from .dor import run_reconstruction_dor
from .online import OnlineReport, run_online_recovery
from .rebuild import (
    RebuildSavings,
    rebuild_errors,
    rebuild_read_savings,
    run_disk_rebuild,
)
from .reconstruction import (
    ClusterStats,
    ReconstructionReport,
    SimConfig,
    build_array,
    run_reconstruction,
)
from .scheduling import (
    FCFSScheduler,
    SSTFScheduler,
    ScanScheduler,
    ScheduledDisk,
    make_scheduler,
)
from .topology import (
    ClusterTopology,
    FaultInjector,
    HeartbeatMonitor,
    Link,
    Node,
    NodeFailure,
    Rack,
    Switch,
    TopologySpec,
    build_topology,
    single_node_topology,
)

__all__ = [
    "ArrayGeometry",
    "DiskArray",
    "FlatGeometry",
    "ResponseLog",
    "TimedBufferCache",
    "OverheadLog",
    "RAIDController",
    "Disk",
    "DiskStats",
    "FixedLatencyModel",
    "SeekRotateTransferModel",
    "AllOf",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "ClusterStats",
    "ReconstructionReport",
    "SimConfig",
    "build_array",
    "run_reconstruction",
    "ClusterTopology",
    "FaultInjector",
    "HeartbeatMonitor",
    "Link",
    "Node",
    "NodeFailure",
    "Rack",
    "Switch",
    "TopologySpec",
    "build_topology",
    "single_node_topology",
    "run_reconstruction_dor",
    "OnlineReport",
    "run_online_recovery",
    "RebuildSavings",
    "rebuild_errors",
    "rebuild_read_savings",
    "run_disk_rebuild",
    "PayloadOracle",
    "VerifyingDataPath",
    "FCFSScheduler",
    "SSTFScheduler",
    "ScanScheduler",
    "ScheduledDisk",
    "make_scheduler",
]
