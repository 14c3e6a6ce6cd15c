"""§6.2.3 case study: pick independent clouds without seeing their data.

Alice wants a reliable multi-cloud key-value store.  Four providers run
Riak, MongoDB, Redis and CouchDB; none will reveal its software stack.
Each cloud is a data source holding its own software records; Alice
sends the auditing agent one PIA request per redundancy arity, and the
agent has the sources run the P-SOP commutative-encryption protocol, so
they jointly compute the Jaccard similarity of their (normalised)
package sets — and nothing else.  The resulting ranking is the paper's
Table 2.

Run:  python examples/multicloud_private_audit.py
"""

from __future__ import annotations

from itertools import combinations

from repro.agents import AuditingAgent, AuditRequest, DataSource
from repro.depdb import DepDB
from repro.swinventory import (
    CLOUDS,
    PAPER_TABLE2_THREE_WAY,
    PAPER_TABLE2_TWO_WAY,
    software_records,
    stack_of,
)


def private_audit(agent: AuditingAgent, ways: int) -> dict:
    """Alice's Step-1 request for every ``ways``-cloud deployment."""
    response = agent.handle(
        AuditRequest(
            client="alice",
            data_sources=CLOUDS,
            deployments=tuple(combinations(CLOUDS, ways)),
            dependency_types=("software",),
            mode="pia",
        )
    )
    return response.report_dict()


def print_table(report: dict, label: str, paper: dict, width: int) -> None:
    print(f"Table 2 ({label} redundancy deployments):")
    print(f"  {'rank':<6}{'deployment':<{width}}{'paper':<9}{'measured':<9}")
    for entry in report["entries"]:
        deployment = tuple(entry["deployment"])
        print(
            f"  {entry['rank']:<6}{' & '.join(deployment):<{width}}"
            f"{paper[deployment]:<9.4f}{entry['jaccard']:<9.4f}"
        )


def main() -> None:
    print("running the private audit with protocol='psop' ...")
    # Each cloud's DAMs would fill its DepDB; here its records are given.
    sources = {
        cloud: DataSource(cloud, depdb=DepDB([record]))
        for cloud, record in zip(CLOUDS, software_records())
    }
    agent = AuditingAgent(sources, pia_group_bits=768, seed=1)
    two_way = private_audit(agent, 2)
    three_way = private_audit(agent, 3)

    print()
    print_table(two_way, "two-way", PAPER_TABLE2_TWO_WAY, 22)
    print()
    print_table(three_way, "three-way", PAPER_TABLE2_THREE_WAY, 31)
    print()
    best = two_way["entries"][0]["deployment"]
    stacks = " + ".join(stack_of(c) for c in best)
    print(
        f"recommendation: {' & '.join(best)} ({stacks}) — most independent "
        f"pair"
    )
    print(
        f"protocol traffic: {two_way['total_bytes'] / 1e6:.2f} MB across "
        f"{len(two_way['entries'])} two-way audits; no provider revealed "
        f"a single package name."
    )


if __name__ == "__main__":
    main()
