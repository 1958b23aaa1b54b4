"""The benchmark's four workloads, by name."""

from .base import Outcome, Workload
from .datalog_closure import DatalogClosure
from .ebay_extract import EbayExtract
from .server_refresh import ServerRefresh
from .tree_query import TreeQuery

WORKLOADS = {
    workload.name: workload
    for workload in (EbayExtract, ServerRefresh, TreeQuery, DatalogClosure)
}

__all__ = ["WORKLOADS", "Outcome", "Workload"]
