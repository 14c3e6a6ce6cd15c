"""Workflow roles of Figure 1: the Step-1 messages, data sources, the one
auditing agent, and the HTTP client whose ``audit`` it can be handed."""

from repro.agents.agent import AuditingAgent
from repro.agents.datasource import DataSource
from repro.agents.messages import (
    AuditRequest,
    AuditResponse,
    DependencyDataRequest,
    DependencyDataResponse,
)
from repro.agents.transport import ServiceClient

__all__ = [
    "AuditRequest",
    "AuditResponse",
    "AuditingAgent",
    "DataSource",
    "DependencyDataRequest",
    "DependencyDataResponse",
    "ServiceClient",
]
