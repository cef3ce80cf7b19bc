"""Discrete-event simulator of an intercontinental data-grid testbed.

Jobs described in a classad-style language are submitted to resource
brokers, matched against heterogeneous computing elements published in
an information index, executed on synthetic site fabrics, and their
outputs stored and catalogued; a production layer drives whole Monte
Carlo assignments through the same machinery.  Every run is exactly
reproducible from its topology file and inputs; nothing in it is random.
"""

from .broker import (ABORTED, CLEARED, DONE_FAILED, DONE_OK, MATCHED, RUNNING,
                     SCHEDULED, SUBMITTED, WAITING, JobRecord, MatchResult,
                     ResourceBroker)
from .datagrid import DataGrid, ReplicaCatalog, StorageElement
from .fabric import (ComputingElement, Fabric, Network, Site, WorkloadProfile,
                     builtin_profiles, content_checksum)
from .grid import Grid, default_topology_path, load_topology
from .infosys import CERecord, InformationIndex
from .jdl import UNDEFINED, JobDescription, evaluate, parse_expr, parse_jdl
from .production import BossDb, ProductionManager, RefDb
from .simcore import Kernel, TraceEntry
from .topology import ConfigError, TopologyConfig, parse_topology
from .vomgmt import Denial, Proxy, VoManager

__version__ = "0.1.0"

__all__ = [
    "ABORTED", "CLEARED", "DONE_FAILED", "DONE_OK", "MATCHED", "RUNNING",
    "SCHEDULED", "SUBMITTED", "WAITING",
    "BossDb", "CERecord", "ComputingElement", "ConfigError", "DataGrid",
    "Denial", "Fabric", "Grid", "InformationIndex", "JobDescription",
    "JobRecord", "Kernel", "MatchResult", "Network", "ProductionManager",
    "Proxy", "RefDb", "ReplicaCatalog", "ResourceBroker", "Site",
    "StorageElement", "TopologyConfig", "TraceEntry", "UNDEFINED",
    "VoManager", "WorkloadProfile", "builtin_profiles", "content_checksum",
    "default_topology_path", "evaluate", "load_topology", "parse_expr",
    "parse_jdl", "parse_topology",
]
