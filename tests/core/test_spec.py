"""Unit tests for audit specifications."""

import numpy as np
import pytest

from repro import AuditSpec, DetailLevel, RGAlgorithm, RankingMethod
from repro.errors import SpecificationError


class TestValidation:
    def test_minimal_valid_spec(self):
        spec = AuditSpec(deployment="d", servers=("a", "b"))
        assert spec.redundancy == 2
        assert spec.level is DetailLevel.FAULT_GRAPH
        assert spec.algorithm is RGAlgorithm.MINIMAL

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deployment": "", "servers": ("a",)},
            {"deployment": "d", "servers": ()},
            {"deployment": "d", "servers": ("a", "a")},
            {"deployment": "d", "servers": ("a",), "required": 2},
            {"deployment": "d", "servers": ("a",), "required": 0},
            {"deployment": "d", "servers": ("a",), "sampling_rounds": 0},
            {"deployment": "d", "servers": ("a",), "sampling_probability": 0.0},
            {"deployment": "d", "servers": ("a",), "sampling_probability": 1.0},
            {"deployment": "d", "servers": ("a",), "top_n": 0},
            {"deployment": "d", "servers": ("a",), "max_order": 0},
            {"deployment": "d", "servers": ("a",), "level": "fault-graph"},
            {"deployment": "d", "servers": ("a",), "algorithm": "minimal"},
            {"deployment": "d", "servers": ("a",), "ranking": "size"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SpecificationError):
            AuditSpec(**kwargs)

    @pytest.mark.parametrize("rounds", [1000.0, 2.5, True, False, "1000", None])
    def test_non_integer_rounds_rejected(self, rounds):
        with pytest.raises(SpecificationError, match="sampling_rounds"):
            AuditSpec(deployment="d", servers=("a",), sampling_rounds=rounds)

    @pytest.mark.parametrize("field", ["top_n", "max_order"])
    @pytest.mark.parametrize("value", [2.5, 1.5, True, "2"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(SpecificationError, match=field):
            AuditSpec(deployment="d", servers=("a",), **{field: value})

    @pytest.mark.parametrize("field", ["top_n", "max_order"])
    def test_numpy_integer_counts_become_int(self, field):
        spec = AuditSpec(deployment="d", servers=("a",), **{field: np.int64(2)})
        assert getattr(spec, field) == 2
        assert type(getattr(spec, field)) is int

    @pytest.mark.parametrize("rounds", [np.int64(300), np.uint16(300), 300])
    def test_numpy_integer_rounds_become_int(self, rounds):
        spec = AuditSpec(deployment="d", servers=("a",), sampling_rounds=rounds)
        assert spec.sampling_rounds == 300
        assert type(spec.sampling_rounds) is int

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(SpecificationError, match="seed"):
            AuditSpec(deployment="d", servers=("a",), seed=seed)

    def test_numpy_seed_becomes_int_and_none_is_kept(self):
        spec = AuditSpec(deployment="d", servers=("a",), seed=np.int64(5))
        assert spec.seed == 5 and type(spec.seed) is int
        assert AuditSpec(deployment="d", servers=("a",), seed=None).seed is None

    @pytest.mark.parametrize("probability", ["0.5", None])
    def test_non_real_sampling_probability_rejected(self, probability):
        with pytest.raises(SpecificationError, match="sampling_probability"):
            AuditSpec(
                deployment="d", servers=("a",), sampling_probability=probability
            )

    def test_servers_normalised_to_tuple(self):
        spec = AuditSpec(deployment="d", servers=["a", "b"])
        assert spec.servers == ("a", "b")

    def test_destinations_normalised(self):
        spec = AuditSpec(
            deployment="d", servers=("a",), destinations=["Internet"]
        )
        assert spec.destinations == ("Internet",)


class TestWithServers:
    def test_clone_keeps_parameters(self):
        base = AuditSpec(
            deployment="base",
            servers=("a", "b"),
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=123,
            ranking=RankingMethod.SIZE,
            top_n=3,
            seed=9,
        )
        clone = base.with_servers(("x", "y"))
        assert clone.deployment == "x & y"
        assert clone.servers == ("x", "y")
        assert clone.algorithm is RGAlgorithm.SAMPLING
        assert clone.sampling_rounds == 123
        assert clone.top_n == 3
        assert clone.seed == 9

    def test_clone_caps_required(self):
        base = AuditSpec(deployment="b", servers=("a", "b", "c"), required=3)
        clone = base.with_servers(("x", "y"))
        assert clone.required == 2

    def test_clone_has_its_own_metadata(self):
        base = AuditSpec(deployment="b", servers=("a",), metadata={"k": 1})
        clone = base.with_servers(("x",))
        clone.metadata["k"] = 2
        assert clone.metadata == {"k": 2}
        assert base.metadata == {"k": 1}
