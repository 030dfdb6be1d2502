"""Probabilistic-database substrate: pc-tables, algebra, aggregates.

A from-scratch stand-in for the SPROUT query engine the paper uses for
``loadData()`` queries (positive relational algebra with aggregates over
pc-tables).
"""

from . import algebra
from .aggregates import (
    avg_aggregate,
    count_aggregate,
    count_distinct_events,
    group_by_sum,
    max_events,
    min_events,
    sum_aggregate,
)
from .pctable import PCTable, PCTuple, block_independent_disjoint, tuple_independent
from .query import Query

__all__ = [
    "PCTable",
    "PCTuple",
    "Query",
    "algebra",
    "avg_aggregate",
    "block_independent_disjoint",
    "count_aggregate",
    "count_distinct_events",
    "group_by_sum",
    "max_events",
    "min_events",
    "sum_aggregate",
    "tuple_independent",
]
