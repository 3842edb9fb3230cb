"""Grid ACLs: parsing, inheritance, caching, management."""

import pytest

from repro.gsi import DistinguishedName
from repro.nfs.protocol import (
    ACCESS_DELETE,
    ACCESS_EXTEND,
    ACCESS_LOOKUP,
    ACCESS_MODIFY,
    ACCESS_READ,
    ACCESS_EXECUTE,
)
from repro.proxy.acl import (
    AclEntry,
    AclError,
    AclStore,
    acl_name_for,
    format_acl,
    is_acl_name,
    parse_acl_text,
)
from repro.vfs import Credentials, VirtualFS

ALICE = DistinguishedName.parse("/O=Lab/CN=Alice")
BOB = DistinguishedName.parse("/O=Lab/CN=Bob")
ROOT = Credentials(0, 0)


def test_acl_name_mapping():
    assert acl_name_for("data.txt") == ".data.txt.acl"
    assert is_acl_name(".data.txt.acl")
    assert not is_acl_name("data.txt")
    assert not is_acl_name(".hidden")


def test_parse_letters_and_numbers():
    entries = parse_acl_text(
        '"/O=Lab/CN=Alice" rwx\n'
        '"/O=Lab/CN=Bob" r\n'
        '"/O=Lab/CN=Carol" 63\n'
        "# comment\n"
        'deny "/O=Lab/CN=Mallory"\n'
    )
    assert entries[0].bits == (
        ACCESS_READ | ACCESS_MODIFY | ACCESS_EXTEND | ACCESS_DELETE
        | ACCESS_EXECUTE | ACCESS_LOOKUP
    )
    assert entries[1].bits == ACCESS_READ
    assert entries[2].bits == 63
    assert entries[3].deny and entries[3].bits == 0


@pytest.mark.parametrize(
    "bad",
    ['/O=Lab/CN=X rwx', '"/O=Lab/CN=X', '"/O=Lab/CN=X" q', '"bad-dn" r'],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(Exception):
        parse_acl_text(bad)


def test_format_parse_roundtrip():
    entries = [AclEntry(str(ALICE), 7), AclEntry(str(BOB), 0, deny=True)]
    assert parse_acl_text(format_acl(entries)) == entries


@pytest.fixture
def store():
    fs = VirtualFS(root_uid=0)
    d = fs.mkdir(1, "project", ROOT)
    f = fs.create(d.fileid, "data.txt", ROOT)
    sub = fs.mkdir(d.fileid, "sub", ROOT)
    nested = fs.create(sub.fileid, "deep.txt", ROOT)
    return AclStore(fs), fs, d, f, sub, nested


def test_no_acl_means_unix_fallback(store):
    acls, fs, d, f, sub, nested = store
    assert acls.evaluate(f.fileid, ALICE) is None


def test_direct_acl_grants_listed_bits(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), ACCESS_READ)])
    assert acls.evaluate(f.fileid, ALICE) == ACCESS_READ
    # a user absent from a present ACL gets zero (paper §4.3)
    assert acls.evaluate(f.fileid, BOB) == 0


def test_inheritance_from_parent_directory(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(1, "project", [AclEntry(str(ALICE), ACCESS_READ | ACCESS_LOOKUP)])
    # both levels of nesting inherit from /project's ACL
    assert acls.evaluate(f.fileid, ALICE) == ACCESS_READ | ACCESS_LOOKUP
    assert acls.evaluate(nested.fileid, ALICE) == ACCESS_READ | ACCESS_LOOKUP


def test_own_acl_overrides_inherited(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(1, "project", [AclEntry(str(ALICE), ACCESS_READ)])
    acls.set_acl(sub.fileid, "deep.txt", [AclEntry(str(ALICE), 63)])
    assert acls.evaluate(f.fileid, ALICE) == ACCESS_READ
    assert acls.evaluate(nested.fileid, ALICE) == 63


def test_deny_entry_gives_zero(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 0, deny=True)])
    assert acls.evaluate(f.fileid, ALICE) == 0


def test_memory_cache_hits(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    acls.evaluate(f.fileid, ALICE)
    misses = acls.cache_misses
    for _ in range(10):
        acls.evaluate(f.fileid, ALICE)
    assert acls.cache_misses == misses
    assert acls.cache_hits >= 10


def test_cache_disabled_rereads(store):
    acls, fs, d, f, sub, nested = store
    acls.cache_enabled = False
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    acls.evaluate(f.fileid, ALICE)
    acls.evaluate(f.fileid, ALICE)
    assert acls.cache_misses >= 2


def test_set_acl_invalidate_picks_up_changes(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    assert acls.evaluate(f.fileid, ALICE) == 1
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 63)])
    assert acls.evaluate(f.fileid, ALICE) == 63


def test_remove_acl_restores_fallback(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    acls.remove_acl(d.fileid, "data.txt")
    assert acls.evaluate(f.fileid, ALICE) is None


def test_unreadable_acl_fails_closed(store):
    acls, fs, d, f, sub, nested = store
    # write garbage directly into an ACL file
    node = fs.create(d.fileid, acl_name_for("data.txt"), ROOT)
    fs.write(node.fileid, 0, b"not an acl at all (((", ROOT)
    assert acls.evaluate(f.fileid, ALICE) == 0


def test_invalidate_targeted_drops_only_that_acl(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    acls.set_acl(sub.fileid, "deep.txt", [AclEntry(str(ALICE), 3)])
    acls.evaluate(f.fileid, ALICE)
    acls.evaluate(nested.fileid, ALICE)
    data_acl = fs.lookup(d.fileid, acl_name_for("data.txt"), ROOT)
    misses = acls.cache_misses
    acls.invalidate(data_acl.fileid)
    # The sibling ACL's parse stays memoized; only data.txt re-reads.
    assert acls.evaluate(nested.fileid, ALICE) == 3
    assert acls.cache_misses == misses
    assert acls.evaluate(f.fileid, ALICE) == 1
    assert acls.cache_misses == misses + 1


def test_invalidate_none_clears_whole_cache(store):
    acls, fs, d, f, sub, nested = store
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    acls.set_acl(sub.fileid, "deep.txt", [AclEntry(str(ALICE), 3)])
    acls.evaluate(f.fileid, ALICE)
    acls.evaluate(nested.fileid, ALICE)
    misses = acls.cache_misses
    acls.invalidate(None)
    acls.evaluate(f.fileid, ALICE)
    acls.evaluate(nested.fileid, ALICE)
    assert acls.cache_misses == misses + 2


def test_invalidate_always_bumps_epoch(store):
    acls, fs, d, f, sub, nested = store
    e0 = acls.epoch
    acls.invalidate(None)
    assert acls.epoch == e0 + 1
    # Targeted invalidation of a never-cached (even bogus) fileid still
    # counts: layered decision caches key off the epoch alone.
    acls.invalidate(999_999)
    assert acls.epoch == e0 + 2
    acls.set_acl(d.fileid, "data.txt", [AclEntry(str(ALICE), 1)])
    assert acls.epoch == e0 + 3
    acls.remove_acl(d.fileid, "data.txt")
    assert acls.epoch == e0 + 4


def test_inheritance_lookup_uses_the_parent_index():
    """A singly-named inode is located from the filesystem's parent
    index, never by scanning; a hard-linked one takes the first link in
    inode order, then entry order, as the scan always did."""
    fs = VirtualFS()
    a = fs.mkdir(1, "a", ROOT)
    b = fs.mkdir(1, "b", ROOT)
    f = fs.create(b.fileid, "f", ROOT)
    store = AclStore(fs)
    scans = []
    real_scan = fs._scan_parent
    fs._scan_parent = lambda fid: scans.append(fid) or real_scan(fid)
    assert store._parent_and_name(f.fileid) == (b.fileid, "f")
    assert store._parent_and_name(b.fileid) == (1, "b")
    assert store._parent_and_name(fs.root.fileid) is None
    assert scans == []
    fs.link(f.fileid, a.fileid, "g", ROOT)  # a precedes b in inode order
    store._locations.clear()
    assert store._parent_and_name(f.fileid) == (a.fileid, "g")
    fs.remove(a.fileid, "g", ROOT)  # back to one name
    assert store._parent_and_name(f.fileid) == (b.fileid, "f")
