"""Grid-style per-file ACLs (paper §4.3).

Each file or directory may have an ACL file beside it named
``.<name>.acl`` whose lines grant a grid identity an NFS ACCESS bitmask::

    "/C=US/O=UFL/CN=Ming Zhao" rwx
    "/C=US/O=UFL/CN=Guest" r
    deny "/C=US/O=Evil/CN=Mallory"

Semantics implemented exactly as described in the paper:

- a file/directory without its own ACL **inherits its parent's**,
  recursively (reduces management complexity),
- a user found in the ACL gets the listed bits; a user not found gets
  **zero** (all access disabled),
- if *no* ACL exists anywhere up the chain, the decision falls back to
  the gridmap-mapped UNIX permissions (the proxy forwards the ACCESS
  call upstream with mapped credentials),
- ACLs are **cached in memory** by the server-side proxy once read from
  disk, and the ACL files themselves are invisible and inaccessible to
  remote clients.

Bits use the NFSv3 ACCESS bitmask; the shorthand letters map r→READ,
w→MODIFY|EXTEND|DELETE, x→EXECUTE|LOOKUP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gsi.names import DistinguishedName
from repro.nfs.protocol import (
    ACCESS_DELETE,
    ACCESS_EXECUTE,
    ACCESS_EXTEND,
    ACCESS_LOOKUP,
    ACCESS_MODIFY,
    ACCESS_READ,
)
from repro.vfs.fs import VfsError, VirtualFS

ACL_SUFFIX_FMT = ".{name}.acl"

_LETTER_BITS = {
    "r": ACCESS_READ,
    "w": ACCESS_MODIFY | ACCESS_EXTEND | ACCESS_DELETE,
    "x": ACCESS_EXECUTE | ACCESS_LOOKUP,
}


def acl_name_for(name: str) -> str:
    """The ACL file name protecting directory entry ``name``."""
    return ACL_SUFFIX_FMT.format(name=name)


def is_acl_name(name: str) -> bool:
    return name.startswith(".") and name.endswith(".acl")


class AclError(Exception):
    """Malformed ACL text."""


@dataclass(frozen=True)
class AclEntry:
    dn: str
    bits: int
    deny: bool = False


def _parse_bits(text: str) -> int:
    text = text.strip()
    if text.isdigit():
        return int(text)
    bits = 0
    for ch in text:
        if ch == "-":
            continue
        if ch not in _LETTER_BITS:
            raise AclError(f"unknown permission letter {ch!r}")
        bits |= _LETTER_BITS[ch]
    return bits


def parse_acl_text(text: str) -> List[AclEntry]:
    entries: List[AclEntry] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        deny = False
        if line.startswith("deny "):
            deny = True
            line = line[5:].strip()
        if not line.startswith('"'):
            raise AclError(f"line {lineno}: DN must be quoted")
        try:
            end = line.index('"', 1)
        except ValueError:
            raise AclError(f"line {lineno}: unterminated quote") from None
        dn_text = line[1:end]
        DistinguishedName.parse(dn_text)  # validate
        rest = line[end + 1 :].strip()
        bits = 0 if deny else _parse_bits(rest)
        entries.append(AclEntry(dn_text, bits, deny))
    return entries


def format_acl(entries: List[AclEntry]) -> str:
    lines = []
    for e in entries:
        if e.deny:
            lines.append(f'deny "{e.dn}"')
        else:
            lines.append(f'"{e.dn}" {e.bits}')
    return "\n".join(lines)


class AclStore:
    """Reads, caches and evaluates ACLs stored in the exported VFS.

    The store walks parent chains for inheritance and memoizes parsed
    ACLs per protecting-file inode, invalidated explicitly when a
    service modifies an ACL through the management interface
    (:meth:`set_acl` / :meth:`remove_acl`, the FSS ``SetAcl`` /
    ``RemoveAcl`` actions).

    Every invalidation — targeted or global — bumps :attr:`epoch`, the
    same versioning discipline as :attr:`repro.gsi.gridmap.Gridmap.epoch`:
    decision caches layered above this store stamp entries with the
    epoch they were computed under and lazily re-resolve when it moves.

    Determinism and units: evaluation is pure data — no clocks, no
    randomness — so same-seed runs make bit-identical decisions.  The
    store itself charges no virtual time; the server proxy charges one
    ACL **disk read** (bytes through the disk model, virtual seconds)
    whenever :attr:`cache_misses` grows during an ACCESS answer, which
    is why hit/miss counts are part of the observable schedule and the
    memo caches here must never change *which* reads miss.
    """

    def __init__(self, fs: VirtualFS, cache_enabled: bool = True):
        self.fs = fs
        #: in-memory ACL caching (§4.3); disable only for ablation study
        self.cache_enabled = cache_enabled
        #: acl-file fileid -> parsed entries
        self._cache: Dict[int, List[AclEntry]] = {}
        #: child fileid -> (parent dir fileid, entry name): O(1) reverse
        #: index for the inheritance walk, verified against the live
        #: directory entry on every use (renames/removes self-heal)
        self._locations: Dict[int, tuple[int, str]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: invalidation counter (see class docstring)
        self.epoch = 0

    # -- plumbing ------------------------------------------------------------

    def _parent_and_name(self, fileid: int) -> Optional[tuple[int, str]]:
        """Locate (parent_dir_fileid, entry_name) for an inode.

        O(1) via the verified reverse index; on first sight of a fileid
        or after a rename/remove made the cached location stale, the
        filesystem's own parent index answers (it scans only for
        hard-linked inodes).
        """
        if fileid == self.fs.root.fileid:
            return None
        loc = self._locations.get(fileid)
        if loc is not None:
            parent_id, name = loc
            try:
                parent = self.fs.inode(parent_id)
            except VfsError:
                parent = None
            if (
                parent is not None
                and parent.is_dir
                and parent.entries.get(name) == fileid
            ):
                return loc
            del self._locations[fileid]  # stale: fall through to rescan
        loc = self.fs._parent_entry(fileid)
        if loc is not None:
            self._locations[fileid] = loc
        return loc

    def _read_acl_file(self, acl_fileid: int) -> List[AclEntry]:
        if self.cache_enabled:
            cached = self._cache.get(acl_fileid)
            if cached is not None:
                self.cache_hits += 1
                return cached
        self.cache_misses += 1
        node = self.fs.inode(acl_fileid)
        entries = parse_acl_text(bytes(node.data).decode("utf-8", "replace"))
        if self.cache_enabled:
            self._cache[acl_fileid] = entries
        return entries

    def invalidate(self, acl_fileid: Optional[int] = None) -> None:
        """Drop cached parse results: one ACL file, or everything.

        ``invalidate(None)`` clears the whole memo (reconfiguration);
        ``invalidate(fileid)`` drops just that ACL file's entry
        (targeted, what :meth:`set_acl`/:meth:`remove_acl` use).  Both
        bump :attr:`epoch` — even when nothing was cached — so layered
        decision caches always observe the mutation.
        """
        if acl_fileid is None:
            self._cache.clear()
        else:
            self._cache.pop(acl_fileid, None)
        self.epoch += 1

    # -- evaluation ------------------------------------------------------------

    def acl_for(self, fileid: int) -> Optional[List[AclEntry]]:
        """The effective ACL for an inode, walking inheritance upward.

        Returns None when no ACL protects the object anywhere up the
        chain (caller falls back to UNIX permissions).
        """
        current = fileid
        for _ in range(256):  # depth guard
            loc = self._parent_and_name(current)
            if loc is None:
                # Root directory: it may carry its own ACL as an entry
                # named ".{root}.acl"? The paper anchors ACLs at entries;
                # the root falls back to UNIX permissions.
                return None
            parent_id, name = loc
            parent = self.fs.inode(parent_id)
            acl_id = parent.entries.get(acl_name_for(name))
            if acl_id is not None:
                try:
                    return self._read_acl_file(acl_id)
                except (AclError, VfsError):
                    return []  # unreadable ACL: fail closed
            current = parent_id  # inherit from the parent directory
        return None

    def evaluate(self, fileid: int, dn: DistinguishedName) -> Optional[int]:
        """Granted ACCESS bits for ``dn``, or None for UNIX fallback.

        A user present in the ACL gets the listed bits (deny lines give
        zero); a user absent from a present ACL gets zero.
        """
        entries = self.acl_for(fileid)
        if entries is None:
            return None
        dn_text = str(dn)
        for e in entries:
            if e.dn == dn_text:
                return 0 if e.deny else e.bits
        return 0

    # -- management (used by the DSS/FSS services) ---------------------------------

    def set_acl(self, dir_fileid: int, name: str, entries: List[AclEntry],
                owner_uid: int = 0) -> None:
        """Create/replace the ACL protecting ``name`` in a directory."""
        from repro.vfs.fs import Credentials

        cred = Credentials(owner_uid, owner_uid)
        acl_fname = acl_name_for(name)
        d = self.fs.inode(dir_fileid)
        existing = d.entries.get(acl_fname)
        text = format_acl(entries).encode("utf-8")
        if existing is None:
            node = self.fs.create(dir_fileid, acl_fname, Credentials(0, 0), mode=0o600)
        else:
            node = self.fs.inode(existing)
            self.fs.setattr(node.fileid, Credentials(0, 0), size=0)
        self.fs.write(node.fileid, 0, text, Credentials(0, 0))
        self.invalidate(node.fileid)

    def remove_acl(self, dir_fileid: int, name: str) -> None:
        from repro.vfs.fs import Credentials

        acl_fname = acl_name_for(name)
        d = self.fs.inode(dir_fileid)
        acl_id = d.entries.get(acl_fname)
        if acl_id is not None:
            self.fs.remove(dir_fileid, acl_fname, Credentials(0, 0))
            self.invalidate(acl_id)
