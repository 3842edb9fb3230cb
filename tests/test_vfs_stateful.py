"""Stateful property test: the VFS against a dict-based model.

Hypothesis drives random sequences of filesystem operations against
both the real :class:`VirtualFS` and a trivially-correct in-memory
model, requiring identical observable outcomes (content, existence,
listings) after every step.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.vfs import Credentials, VfsError, VirtualFS

CRED = Credentials(1000, 1000)


def scanned_names(fs):
    """fileid -> every (parent, name) naming it, by a full scan in inode
    order, then entry order (what the parent lookups did before they
    were indexed)."""
    out = {}
    for fid, node in fs._inodes.items():
        if node.is_dir:
            for name, child in node.entries.items():
                out.setdefault(child, []).append((fid, name))
    return out


def assert_parent_index(fs):
    """The parent index equals a fresh scan, and every parent lookup
    picks the link the scan picks."""
    names = scanned_names(fs)
    single = {
        fid: locs[0] for fid, locs in names.items()
        if fs._inodes[fid].is_dir or fs._inodes[fid].nlink == 1
    }
    assert fs._parents == single
    for fid, node in fs._inodes.items():
        first = names.get(fid, [None])[0]
        assert fs._parent_entry(fid) == first, fid
        if not node.is_dir:
            assert node.nlink == len(names.get(fid, [])), fid
        elif fid != 1:
            assert len(names[fid]) == 1
            assert fs._find_parent(fid) == first[0]
    assert fs._find_parent(1) == 1

names = st.sampled_from([f"f{i}" for i in range(6)] + [f"d{i}" for i in range(3)])
payloads = st.binary(min_size=0, max_size=200)
offsets = st.integers(min_value=0, max_value=300)


class VfsModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.fs = VirtualFS(root_uid=1000, root_gid=1000)
        self.files = {}  # name -> bytearray (hard links share one)
        self.dirs = set()  # names of empty dirs in the root
        self.links = {}  # name -> symlink target

    # -- rules ------------------------------------------------------------

    @rule(name=names, data=payloads, offset=offsets)
    def write(self, name, data, offset):
        if name in self.dirs or name in self.links:
            return
        try:
            node = self.fs.create(1, name, CRED)
        except VfsError:
            return
        self.fs.write(node.fileid, offset, data, CRED)
        buf = self.files.setdefault(name, bytearray())
        if len(buf) < offset + len(data):
            buf.extend(b"\x00" * (offset + len(data) - len(buf)))
        buf[offset : offset + len(data)] = data

    @rule(name=names)
    def mkdir(self, name):
        if name in self.files or name in self.dirs or name in self.links:
            try:
                self.fs.mkdir(1, name, CRED)
                raise AssertionError("mkdir should have failed with EXIST")
            except VfsError:
                return
        self.fs.mkdir(1, name, CRED)
        self.dirs.add(name)

    @rule(name=names)
    def remove(self, name):
        if name in self.files or name in self.links:
            self.fs.remove(1, name, CRED)
            self.files.pop(name, None)
            self.links.pop(name, None)
        else:
            try:
                self.fs.remove(1, name, CRED)
                raise AssertionError("remove of missing/dir should fail")
            except VfsError:
                pass

    @rule(name=names)
    def rmdir(self, name):
        if name in self.dirs:
            self.fs.rmdir(1, name, CRED)
            self.dirs.discard(name)
        else:
            try:
                self.fs.rmdir(1, name, CRED)
                raise AssertionError("rmdir of missing/file should fail")
            except VfsError:
                pass

    @rule(src=names, dst=names)
    def rename(self, src, dst):
        non_dir = src in self.files or src in self.links
        model_ok = (
            non_dir and src != dst and dst not in self.dirs
        ) or (
            # a directory may replace an *empty* directory (ours always
            # are) but never a file or symlink
            src in self.dirs and src != dst
            and dst not in self.files and dst not in self.links
        )
        try:
            self.fs.rename(1, src, 1, dst, CRED)
            real_ok = True
        except VfsError:
            real_ok = False
        if src == dst and (non_dir or src in self.dirs):
            return  # no-op rename onto itself: both sides unchanged
        if src in self.files and self.files.get(dst) is self.files[src]:
            assert real_ok
            return  # both names link one inode: a no-op, as in POSIX
        assert real_ok == model_ok, (src, dst, sorted(self.files), sorted(self.dirs))
        if model_ok:
            self.files.pop(dst, None)
            self.links.pop(dst, None)
            self.dirs.discard(dst)  # replaced empty dir, if any
            if src in self.files:
                self.files[dst] = self.files.pop(src)
            elif src in self.links:
                self.links[dst] = self.links.pop(src)
            else:
                self.dirs.discard(src)
                self.dirs.add(dst)

    @rule(src=names, dst=names)
    def link(self, src, dst):
        if src not in self.files:
            return
        taken = dst in self.files or dst in self.dirs or dst in self.links
        node = self.fs.resolve(f"/{src}", CRED)
        try:
            self.fs.link(node.fileid, 1, dst, CRED)
        except VfsError:
            assert taken
            return
        assert not taken
        self.files[dst] = self.files[src]  # one shared inode

    @rule(name=names, dest=st.sampled_from(["f0", "../x", "a" * 40]))
    def symlink(self, name, dest):
        taken = name in self.files or name in self.dirs or name in self.links
        try:
            self.fs.symlink(1, name, dest, CRED)
        except VfsError:
            assert taken
            return
        assert not taken
        self.links[name] = dest

    @rule(name=names, size=st.integers(min_value=0, max_value=250))
    def truncate(self, name, size):
        if name not in self.files:
            return
        node = self.fs.resolve(f"/{name}", CRED)
        self.fs.setattr(node.fileid, CRED, size=size)
        buf = self.files[name]
        if size <= len(buf):
            del buf[size:]
        else:
            buf.extend(b"\x00" * (size - len(buf)))

    # -- invariants -------------------------------------------------------------

    @invariant()
    def contents_match(self):
        listing = {
            name for name, _fid in self.fs.readdir(1, CRED)
            if name not in (".", "..")
        }
        assert listing == set(self.files) | self.dirs | set(self.links)
        for name, target in self.links.items():
            assert self.fs.readlink(self.fs.resolve(f"/{name}", CRED).fileid) == target
        for name, expected in self.files.items():
            node = self.fs.resolve(f"/{name}", CRED)
            data, _eof = self.fs.read(node.fileid, 0, 10_000, CRED)
            assert data == bytes(expected), name
            assert node.size == len(expected)

    @invariant()
    def nlink_consistent(self):
        assert self.fs.root.nlink == 2 + len(self.dirs)

    @invariant()
    def space_accounting_matches_inode_sum(self):
        assert self.fs.used_bytes() == sum(
            n.used_bytes() for n in self.fs._inodes.values()
        )

    @invariant()
    def parent_index_matches_scan(self):
        assert_parent_index(self.fs)


TestVfsStateful = VfsModel.TestCase
TestVfsStateful.settings = __import__("hypothesis").settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


# -- parent index across nested directories ------------------------------------

OPS = ("create", "mkdir", "symlink", "link", "remove", "rmdir", "rename")
tree_ops = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=7),  # a directory, by position
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=7),  # a second directory
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=15),  # an inode, by position
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(tree_ops)
def test_parent_index_matches_scan_in_nested_trees(ops):
    """Hard links and renames across subdirectories keep the index equal
    to a scan after every operation, failed ones included."""
    fs = VirtualFS(root_uid=1000, root_gid=1000)
    for op, d1, n1, d2, n2, pick in ops:
        dirs = [fid for fid, node in fs._inodes.items() if node.is_dir]
        fids = list(fs._inodes)
        a, b = dirs[d1 % len(dirs)], dirs[d2 % len(dirs)]
        try:
            if op == "create":
                fs.create(a, n1, CRED)
            elif op == "mkdir":
                fs.mkdir(a, n1, CRED)
            elif op == "symlink":
                fs.symlink(a, n1, "t", CRED)
            elif op == "link":
                fs.link(fids[pick % len(fids)], a, n1, CRED)
            elif op == "remove":
                fs.remove(a, n1, CRED)
            elif op == "rmdir":
                fs.rmdir(a, n1, CRED)
            else:
                fs.rename(a, n1, b, n2, CRED)
        except VfsError:
            pass
        assert_parent_index(fs)
        for fid in dirs:
            if fid in fs._inodes:
                fs.readdir(fid, CRED)  # ".." comes from the index
