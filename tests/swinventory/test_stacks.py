"""Unit tests for the Table-2 stack reconstruction (§6.2.3)."""

import pytest

from repro.errors import DependencyDataError
from repro.swinventory import (
    CLOUDS,
    PAPER_TABLE2_THREE_WAY,
    PAPER_TABLE2_TWO_WAY,
    REGION_SIZES,
    STACKS,
    all_stack_packages,
    software_records,
    stack_of,
    stack_packages,
)
from tests.swinventory.oracles import (
    expected_jaccard,
    paper_rankings,
    region_census,
    verify_against_paper,
)

#: The analytic Jaccard of every Table-2 combination, as its intersection
#: and union region totals: the same integer division, so ``==`` holds.
TABLE2_JACCARD = {
    ("Cloud2", "Cloud4"): 81 / 576,
    ("Cloud2", "Cloud3"): 87 / 554,
    ("Cloud1", "Cloud4"): 101 / 486,
    ("Cloud1", "Cloud3"): 129 / 442,
    ("Cloud3", "Cloud4"): 145 / 415,
    ("Cloud1", "Cloud2"): 224 / 444,
    ("Cloud2", "Cloud3", "Cloud4"): 76 / 692,
    ("Cloud1", "Cloud2", "Cloud4"): 76 / 626,
    ("Cloud1", "Cloud3", "Cloud4"): 76 / 560,
    ("Cloud1", "Cloud2", "Cloud3"): 87 / 587,
}


class TestAssignments:
    def test_cloud_stack_mapping(self):
        assert stack_of("Cloud1") == "Riak"
        assert stack_of("Cloud2") == "MongoDB"
        assert stack_of("Cloud3") == "Redis"
        assert stack_of("Cloud4") == "CouchDB"

    def test_unknown_cloud(self):
        with pytest.raises(DependencyDataError):
            stack_of("Cloud9")

    def test_unknown_stack(self):
        with pytest.raises(DependencyDataError):
            stack_packages("Oracle")


class TestRegionConstruction:
    def test_set_sizes_follow_regions(self):
        packages = all_stack_packages()
        for index, cloud in enumerate(CLOUDS):
            expected = sum(
                size
                for region, size in REGION_SIZES.items()
                if index in region
            )
            assert len(packages[cloud]) == expected

    def test_universal_region_contains_base_libraries(self):
        shared = frozenset.intersection(*all_stack_packages().values())
        assert "libc6@2.19-18" in shared
        assert len(shared) == REGION_SIZES[(0, 1, 2, 3)]

    def test_every_stack_has_unique_packages(self):
        packages = all_stack_packages()
        for cloud in CLOUDS:
            others = frozenset().union(
                *(packages[c] for c in CLOUDS if c != cloud)
            )
            assert packages[cloud] - others

    def test_census_totals(self):
        census = region_census()
        assert census["universe"] == sum(REGION_SIZES.values())

    def test_census_pin(self):
        assert region_census() == {
            "Cloud1": 299,
            "Cloud2": 369,
            "Cloud3": 272,
            "Cloud4": 288,
            "universe": 700,
        }


class TestPaperAgreement:
    def test_verify_against_paper_passes(self):
        verify_against_paper(tolerance=0.01)

    def test_verify_tolerance_zero_fails(self):
        with pytest.raises(DependencyDataError):
            verify_against_paper(tolerance=0.0)

    @pytest.mark.parametrize("clouds,value", list(PAPER_TABLE2_TWO_WAY.items()))
    def test_two_way_jaccards_close(self, clouds, value):
        assert expected_jaccard(clouds) == pytest.approx(value, abs=0.01)

    @pytest.mark.parametrize(
        "clouds,value", list(PAPER_TABLE2_THREE_WAY.items())
    )
    def test_three_way_jaccards_close(self, clouds, value):
        assert expected_jaccard(clouds) == pytest.approx(value, abs=0.01)

    def test_every_combination_is_pinned(self):
        assert set(TABLE2_JACCARD) == (
            set(PAPER_TABLE2_TWO_WAY) | set(PAPER_TABLE2_THREE_WAY)
        )

    @pytest.mark.parametrize("clouds,value", list(TABLE2_JACCARD.items()))
    def test_expected_jaccard_pins(self, clouds, value):
        assert expected_jaccard(clouds) == value

    def test_rankings_match(self):
        two, three = paper_rankings()
        assert two[0] == ("Cloud2", "Cloud4")    # most independent pair
        assert two[-1] == ("Cloud1", "Cloud2")   # most correlated pair
        assert three[0] == ("Cloud2", "Cloud3", "Cloud4")


class TestSoftwareRecords:
    def test_one_record_per_cloud(self):
        records = software_records()
        assert len(records) == 4
        assert {r.pgm for r in records} == set(STACKS)

    def test_custom_hosts(self):
        records = software_records(hosts={"Cloud1": "node-a"})
        riak = next(r for r in records if r.pgm == "Riak")
        assert riak.hw == "node-a"

    def test_dependencies_match_stack_packages(self):
        records = software_records()
        riak = next(r for r in records if r.pgm == "Riak")
        assert frozenset(riak.dep) == stack_packages("Riak")
