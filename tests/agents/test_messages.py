"""Unit tests for workflow messages."""

import json

import pytest

from repro.agents import AuditRequest, AuditResponse
from repro.errors import SpecificationError


class TestAuditRequest:
    def valid(self, **overrides):
        kwargs = dict(
            client="alice",
            data_sources=("dc1",),
            deployments=(("S1", "S2"),),
        )
        kwargs.update(overrides)
        return AuditRequest(**kwargs)

    def test_valid_request(self):
        request = self.valid()
        assert request.mode == "sia"
        assert request.metric == "size"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"client": ""},
            {"data_sources": ()},
            {"deployments": ()},
            {"mode": "magic"},
            {"metric": "vibes"},
            {"dependency_types": ("quantum",)},
            {"deployments": {("S1", "S2")}},
            {"data_sources": (1,)},
            {"deployments": (("S1", ""),)},
            {"redundancy": True},
            {"redundancy": 1.0},
            {"redundancy": "2"},
            {"redundancy": 0},
        ],
    )
    def test_invalid_requests(self, overrides):
        with pytest.raises(SpecificationError):
            self.valid(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"data_sources": "lab"},
            {"deployments": "S1"},
            {"deployments": ("S1", "S2")},  # the nesting forgotten
            {"deployments": (("S1", "S2"), "S3")},
            {"dependency_types": "network"},
            {"programs": "riak"},
        ],
        ids=repr,
    )
    def test_string_for_a_list_rejected(self, overrides):
        # Read as a sequence, a string would be the names of its
        # characters.
        with pytest.raises(SpecificationError, match="must be a list"):
            self.valid(**overrides)

    def test_lists_normalised_to_tuples(self):
        request = self.valid(
            data_sources=["dc1"],
            deployments=[["S1", "S2"], ("S1", "S3")],
            dependency_types=["network"],
            programs=["riak"],
        )
        assert request == self.valid(
            deployments=(("S1", "S2"), ("S1", "S3")),
            dependency_types=("network",),
            programs=("riak",),
        )
        hash(request)

    def test_json_serialisable(self):
        payload = json.loads(self.valid().to_json())
        assert payload["client"] == "alice"
        assert payload["deployments"] == [["S1", "S2"]]


class TestAuditResponse:
    def test_report_dict(self):
        response = AuditResponse(
            client="alice", report_json='{"x": 1}', mode="sia"
        )
        assert response.report_dict() == {"x": 1}
