"""Byte pins of the store: content hashes, dumps, the on-disk schema.

Whatever class layout the in-memory and the SQLite store share, these
values do not move: content hashes live in snapshot tables already on
disk, dumps feed every request fingerprint, and a state directory
written by an earlier build must still open.
"""

import hashlib
import pickle
import sqlite3

import pytest

from repro.acquisition import NetworkDependencyCollector
from repro.depdb import DepDB
from repro.topology import FatTreeConfig, fat_tree, fat_tree_routes

from tests.depdb.test_sqlite import RECORDS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fat_tree_records() -> list:
    """Every server's routes in a k=12 fat tree: 15 552 records."""
    tree = FatTreeConfig(ports=12)
    topology = fat_tree(tree)
    names = [device.name for device in topology.servers()]
    records = list(
        NetworkDependencyCollector(
            topology,
            servers=names,
            static_routes={name: fat_tree_routes(tree, name) for name in names},
        ).stream()
    )
    assert len(records) == 15_552
    return records


#: (content_hash, sha-256 of dumps(), sha-256 of to_json()).
PINS = {
    "fat_tree": (
        "fd50a7ea39d6e460ff80b0ec6f824dcc88be16f294c052002b9e54415674d850",
        "1c7a7b7d7ff1c453e0acc1762b22501dd96c10ed83af2f9d6b9d48687f73fa36",
        "d7fd67a342d8dc4e0d4cede8f5d29df3792c68d45baf5c1346170433f6411927",
    ),
    "records": (
        "076d1db18108ce3aec550ad79d82ca09bab02e277bae6e457459d641c07f3915",
        "abb0ae0246752f61dc862f00b0edf9d2dd7a8a3a387fda0dd70d70987cfc3acc",
        "3a1f2a4ba812fd7272cbb59d42625cfb00bedb098477779f149c70640f514ce5",
    ),
}


@pytest.mark.parametrize("store", ["memory", "sqlite"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_content_hash_dumps_and_json_bytes(name, store, request):
    records = (
        request.getfixturevalue("fat_tree_records")
        if name == "fat_tree"
        else RECORDS
    )
    db = DepDB(records) if store == "memory" else DepDB.sqlite(":memory:", records)
    with db:
        got = (db.content_hash(), _sha256(db.dumps()), _sha256(db.to_json()))
    assert got == PINS[name]


#: ``sqlite_master`` of a freshly created store file, in creation order.
SCHEMA_OBJECTS = [
    ("table", "network"),
    ("index", "sqlite_autoindex_network_1"),
    ("index", "idx_network_src"),
    ("table", "hardware"),
    ("index", "sqlite_autoindex_hardware_1"),
    ("index", "idx_hardware_hw"),
    ("table", "software"),
    ("index", "sqlite_autoindex_software_1"),
    ("index", "idx_software_hw"),
    ("index", "idx_software_pgm"),
    ("table", "snapshots"),
    ("index", "sqlite_autoindex_snapshots_1"),
    ("table", "meta"),
    ("index", "sqlite_autoindex_meta_1"),
    ("trigger", "network_no_update"),
    ("trigger", "network_no_delete"),
    ("trigger", "hardware_no_update"),
    ("trigger", "hardware_no_delete"),
    ("trigger", "software_no_update"),
    ("trigger", "software_no_delete"),
]
#: sha-256 of every object's SQL text (``None`` for autoindexes), one a line.
SCHEMA_SQL_SHA256 = (
    "6de03e5550450445de247296d5c7697a7d858c7d399ffc06b56dee355fa0e8be"
)


def test_fresh_file_schema(tmp_path):
    path = tmp_path / "dep.sqlite"
    DepDB.sqlite(path).close()
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT type, name, sql FROM sqlite_master ORDER BY rowid"
        ).fetchall()
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
    finally:
        conn.close()
    assert [(kind, name) for kind, name, _ in rows] == SCHEMA_OBJECTS
    assert _sha256("\n".join(str(sql) for *_, sql in rows)) == SCHEMA_SQL_SHA256
    assert version == ("1",)


def test_unpickled_sqlite_store_is_an_in_memory_store(tmp_path):
    with DepDB.sqlite(tmp_path / "dep.sqlite", records=RECORDS) as db:
        clone = pickle.loads(pickle.dumps(db))
    assert type(clone) is DepDB
    assert clone.records() == RECORDS
    assert clone.content_hash() == PINS["records"][0]
