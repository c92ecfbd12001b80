"""Declarative policy for detlint: layers, allowlists, kernel surface.

Everything a rule needs to know about *this* tree lives here, so the rule
implementations in :mod:`repro.analysis.det` / :mod:`repro.analysis.arch`
stay generic and the policy is reviewable in one place.  Tests build
their own :class:`LintConfig` to point the same rules at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

__all__ = [
    "ENV_SURFACE",
    "LAYER_GROUPS",
    "LayerGroup",
    "LintConfig",
    "SIM_IMPORT_SURFACE",
    "default_config",
]


@dataclass(frozen=True)
class LayerGroup:
    """One rank of the layer DAG: a set of peer packages.

    A module may import packages in strictly lower groups and its own
    package; ``allow_intra`` additionally permits imports between the
    *different* packages of the same group (used for the application
    layer, where experiments/bench/apps legitimately compose each other).
    """

    packages: FrozenSet[str]
    allow_intra: bool = False


#: The layer DAG, lowest first.  The empty-string package stands for
#: top-level modules (``repro/__init__.py``, ``repro/__main__.py``) which
#: are composition roots and sit in the application layer.
LAYER_GROUPS: Tuple[LayerGroup, ...] = (
    # Foundation: the simulation substrate, and the (repro-independent)
    # static-analysis tooling.  Neither may import any other repro layer.
    LayerGroup(frozenset({"sim", "analysis"})),
    # Substrate peers: virtual network, storage, DHT math.  Peers — none
    # may import another.
    LayerGroup(frozenset({"net", "storage", "dht"})),
    # Mechanisms composed from the substrate.
    LayerGroup(frozenset({"transfer", "workloads"})),
    # The BitDew data model and runtime.
    LayerGroup(frozenset({"core"})),
    # The D* services (catalog, scheduler, repository, transfer, fabric).
    LayerGroup(frozenset({"services"})),
    # Multi-domain federation over the services.
    LayerGroup(frozenset({"federation"})),
    # Application layer: scenario harnesses, registry, apps, CLI.
    LayerGroup(frozenset({"experiments", "bench", "apps", ""}),
               allow_intra=True),
)


#: Explicitly sanctioned edges that violate the DAG, keyed by
#: (source path relative to the scan root, imported package).  Every
#: entry carries its justification; remove the edge, remove the entry.
LAYER_EXEMPTIONS: Dict[Tuple[str, str], str] = {
    ("core/runtime.py", "services"):
        "composition root: BitDewEnvironment wires the service deployment "
        "(container vs sharded fabric); scheduled to invert behind the "
        "pluggable backend interface of the ROADMAP asyncio item",
}


#: The only names non-sim code may import from the simulation substrate.
#: This *is* the interface spec for the future real-time asyncio backend
#: (ROADMAP): an alternative backend must provide exactly these types.
#: Keyed by module; ``repro.sim`` re-exports the union.
SIM_IMPORT_SURFACE: Dict[str, FrozenSet[str]] = {
    "repro.sim": frozenset({
        "AllOf", "Environment", "Event", "Process", "RandomStreams",
        "Resource", "SimulationError", "Timeout", "Timer", "derive_seed",
        "ids",
    }),
    # Draw as ``next(ids.hosts)``: rewind() rebinds the sequences, so a
    # ``from repro.sim.ids import hosts`` would keep a stale one.
    "repro.sim.ids": frozenset({"rewind"}),
    "repro.sim.kernel": frozenset({
        "AllOf", "Environment", "Event", "Process", "SimulationError",
        "Timeout", "Timer",
    }),
    "repro.sim.resources": frozenset({"Request", "Resource"}),
    "repro.sim.rng": frozenset({"RandomStreams", "derive_seed"}),
    # The event queue is a sim-internal implementation detail.
    "repro.sim.scheduler": frozenset(),
}


#: The Environment attributes non-sim code may touch.  Everything else —
#: peek/scheduler (queue introspection), _schedule/_call_soon/_scheduler/
#: _counter (internals) — is owned by the sim backend.  This list +
#: SIM_IMPORT_SURFACE is the clock/transport interface both backends must
#: implement.
ENV_SURFACE: FrozenSet[str] = frozenset({
    "all_of", "call_later", "event", "now", "process",
    "processed_events", "run", "settle", "timeout",
})


#: Modules (path prefixes relative to the scan root) where wall-clock
#: reads are the *product*, not a hazard: the harness around a run, never
#: a scenario.  Each entry documents why the determinism contract is
#: preserved.
WALLCLOCK_ALLOWLIST: Dict[str, str] = {
    "experiments/executor.py":
        "per-point elapsed-time progress lines go to stderr only and "
        "never enter result JSON",
    "__main__.py":
        "the CLI '# stats:' perf line reports wall clock to stderr; "
        "it times run_spec from outside and never enters --out JSON",
}


#: Modules that may keep process-wide mutable state (DET006): the owner
#: of the id space, and composition roots whose state is a memo of
#: something no run can change.
PROCESS_STATE_ALLOWLIST: Dict[str, str] = {
    "sim/ids.py":
        "the one id space; run_spec rewinds it on entry",
    "experiments/cache.py":
        "memo of the source-tree hash that salts cache keys",
}


#: Ordering-sensitive hot paths: modules whose iteration order can leak
#: into event order, placement, replication or emitted output.  DET004
#: (unordered dict iteration) applies only here; DET003 (set iteration)
#: applies tree-wide because set order is unordered *everywhere*.
HOT_MODULES: Tuple[str, ...] = (
    "sim/",
    "net/allocation.py",
    "net/flows.py",
    # The ring index order is routing: replica sets, hop paths and every
    # fabric key→shard decision are read off it.
    "dht/chord.py",
    "services/data_scheduler.py",
    "services/fabric.py",
    "services/rebalance.py",
    "services/router.py",
    "federation/replication.py",
    # The cohort sync/heartbeat generators feed placement and transfer
    # order for 100k-host blocks; dict order there is event order.
    "workloads/cohort.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved policy handed to every rule.

    The defaults describe ``src/repro``; tests construct permissive or
    pointed variants for fixture trees.
    """

    layer_groups: Tuple[LayerGroup, ...] = LAYER_GROUPS
    layer_exemptions: Mapping[Tuple[str, str], str] = \
        field(default_factory=lambda: dict(LAYER_EXEMPTIONS))
    sim_import_surface: Mapping[str, FrozenSet[str]] = \
        field(default_factory=lambda: dict(SIM_IMPORT_SURFACE))
    env_surface: FrozenSet[str] = ENV_SURFACE
    wallclock_allowlist: Mapping[str, str] = \
        field(default_factory=lambda: dict(WALLCLOCK_ALLOWLIST))
    hot_modules: Tuple[str, ...] = HOT_MODULES
    process_state_allowlist: Mapping[str, str] = \
        field(default_factory=lambda: dict(PROCESS_STATE_ALLOWLIST))
    #: Path prefixes exempt from the *sim-internal* rules (the sim package
    #: itself may use its own private surface).
    sim_package_prefixes: Tuple[str, ...] = ("sim/",)
    #: The import-root package name the ARCH rules resolve against.
    root_package: str = "repro"

    def layer_rank(self, package: str) -> int:
        """Rank of *package* in the DAG; -1 if unknown (exempt from ARCH001)."""
        for rank, group in enumerate(self.layer_groups):
            if package in group.packages:
                return rank
        return -1

    def is_wallclock_allowed(self, rel_path: str) -> bool:
        return any(rel_path.startswith(prefix)
                   for prefix in self.wallclock_allowlist)

    def is_hot_module(self, rel_path: str) -> bool:
        return any(rel_path.startswith(prefix) for prefix in self.hot_modules)

    def is_sim_internal(self, rel_path: str) -> bool:
        return any(rel_path.startswith(prefix)
                   for prefix in self.sim_package_prefixes)


def default_config() -> LintConfig:
    """The policy for this repository's ``src/repro`` tree."""
    return LintConfig()


def permissive_config(hot: Sequence[str] = ("",)) -> LintConfig:
    """A config that applies every rule everywhere (fixture testing)."""
    return LintConfig(wallclock_allowlist={}, hot_modules=tuple(hot),
                      process_state_allowlist={},
                      sim_package_prefixes=("sim/",), layer_exemptions={})
