"""Dragonfly fabric toolkit.

Builds fully-connected Dragonfly topologies, synthesizes deadlock-free
deterministic routing configurations (forwarding tables plus SL-to-VL tables),
proves or refutes deadlock freedom on the induced channel dependency graph,
and measures routing-engine behavior with a flit-level fabric simulator.
"""

from .errors import (
    DeadlockDetected,
    DflyError,
    InvalidParams,
    InvariantViolation,
    MalformedDump,
    ManifestError,
    NotADragonfly,
    RoutingLoop,
    UnknownChannel,
    UnsupportedParams,
    UnsupportedTopology,
)
from .topology import (
    GLOBAL,
    LOCAL,
    TERMINAL,
    Channel,
    DragonflyParams,
    FlowCounts,
    Topology,
    analytic_flow_counts,
    build_topology,
    channel_kind,
)
from .routing import (
    RoutingConfig,
    discover_groups,
    emit_fabric_dump,
    parse_fabric_dump,
    synthesize,
)
from .deadlock import (
    ChannelDependencyGraph,
    DeadlockReport,
    build_cdg,
    check_deadlock_free,
)
from .traffic import HotspotTraffic, Stencil3dTraffic, TrafficPattern, UniformTraffic, make_pattern
from .simulator import SimConfig, SimResult, run_sim, sweep

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChannelDependencyGraph",
    "DeadlockDetected",
    "DeadlockReport",
    "DflyError",
    "DragonflyParams",
    "FlowCounts",
    "GLOBAL",
    "HotspotTraffic",
    "InvalidParams",
    "InvariantViolation",
    "LOCAL",
    "MalformedDump",
    "ManifestError",
    "NotADragonfly",
    "RoutingConfig",
    "RoutingLoop",
    "SimConfig",
    "SimResult",
    "Stencil3dTraffic",
    "TERMINAL",
    "Topology",
    "TrafficPattern",
    "UniformTraffic",
    "UnknownChannel",
    "UnsupportedParams",
    "UnsupportedTopology",
    "analytic_flow_counts",
    "build_cdg",
    "build_topology",
    "channel_kind",
    "check_deadlock_free",
    "discover_groups",
    "emit_fabric_dump",
    "make_pattern",
    "parse_fabric_dump",
    "run_sim",
    "sweep",
    "synthesize",
]
