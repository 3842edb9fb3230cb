"""The kernel client's cache machinery, unit-tested directly."""

from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.nfs.cache import AccessCache, AttrCache, NameCache, Page, PageCache
from repro.nfs.protocol import Fattr3, FileHandle


def attr(fileid=1, mtime=0.0, is_dir=False, size=100):
    return Fattr3(
        ftype=2 if is_dir else 1, mode=0o644, nlink=1, uid=0, gid=0,
        size=size, used=size, fsid=1, fileid=fileid,
        atime=mtime, mtime=mtime, ctime=mtime,
    )


# -- AttrCache -------------------------------------------------------------------


def test_attr_cache_hit_within_timeout():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0)
    cache.put(attr(1))
    t[0] = 2.9
    assert cache.get(1) is not None
    t[0] = 3.1
    assert cache.get(1) is None
    assert cache.hits == 1 and cache.misses == 1


def test_attr_cache_timeout_doubles_when_stable():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_reg_max=60.0)
    cache.put(attr(1, mtime=5.0))      # timeout 3
    cache.put(attr(1, mtime=5.0))      # unchanged: timeout 6
    cache.put(attr(1, mtime=5.0))      # timeout 12
    t[0] = 10.0
    assert cache.get(1) is not None    # 10 < 12


def test_attr_cache_timeout_resets_on_change():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0)
    cache.put(attr(1, mtime=5.0))
    cache.put(attr(1, mtime=5.0))      # timeout 6
    cache.put(attr(1, mtime=9.0))      # changed: back to 3
    t[0] = 4.0
    assert cache.get(1) is None


def test_attr_cache_timeout_capped_at_max():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_reg_max=10.0)
    for _ in range(10):
        cache.put(attr(1, mtime=5.0))
    t[0] = 9.9
    assert cache.get(1) is not None
    t[0] = 10.1
    assert cache.get(1) is None


def test_attr_cache_directories_use_dir_bounds():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_dir_min=30.0)
    cache.put(attr(1, is_dir=True))
    t[0] = 20.0
    assert cache.get(1) is not None  # dirs live longer


def test_attr_cache_peek_ignores_freshness():
    t = [0.0]
    cache = AttrCache(lambda: t[0])
    cache.put(attr(1))
    t[0] = 1e6
    assert cache.get(1) is None
    assert cache.peek(1) is not None


def test_attr_cache_invalidate_and_clear():
    cache = AttrCache(lambda: 0.0)
    cache.put(attr(1))
    cache.put(attr(2))
    cache.invalidate(1)
    assert cache.peek(1) is None and cache.peek(2) is not None
    cache.clear()
    assert cache.peek(2) is None


# -- NameCache ----------------------------------------------------------------------


def fh(fileid):
    return FileHandle(1, fileid, 1)


def test_name_cache_basics():
    cache = NameCache()
    cache.put(1, "a", fh(10), 10)
    assert cache.get(1, "a") == (fh(10), 10)
    assert cache.get(1, "b") is None
    cache.invalidate(1, "a")
    assert cache.get(1, "a") is None


def test_name_cache_invalidate_dir():
    cache = NameCache()
    cache.put(1, "a", fh(10), 10)
    cache.put(1, "b", fh(11), 11)
    cache.put(2, "c", fh(12), 12)
    cache.invalidate_dir(1)
    assert cache.get(1, "a") is None and cache.get(1, "b") is None
    assert cache.get(2, "c") is not None


def test_name_cache_lru_capacity():
    cache = NameCache(capacity=2)
    cache.put(1, "a", fh(10), 10)
    cache.put(1, "b", fh(11), 11)
    cache.get(1, "a")            # refresh "a"
    cache.put(1, "c", fh(12), 12)  # evicts "b"
    assert cache.get(1, "a") is not None
    assert cache.get(1, "b") is None
    assert cache.get(1, "c") is not None


# -- AccessCache -----------------------------------------------------------------------


def test_access_cache_per_uid_with_timeout():
    t = [0.0]
    cache = AccessCache(lambda: t[0], timeout=30.0)
    cache.put(10, 1000, 0x3F)
    assert cache.get(10, 1000) == 0x3F
    assert cache.get(10, 2000) is None  # per-uid
    t[0] = 31.0
    assert cache.get(10, 1000) is None


def test_access_cache_invalidate_file():
    cache = AccessCache(lambda: 0.0)
    cache.put(10, 1000, 1)
    cache.put(10, 2000, 2)
    cache.put(11, 1000, 3)
    cache.invalidate(10)
    assert cache.get(10, 1000) is None and cache.get(10, 2000) is None
    assert cache.get(11, 1000) == 3


# -- PageCache ----------------------------------------------------------------------------


def test_page_cache_put_get_lru():
    cache = PageCache(capacity_bytes=3 * 100, block_size=100)
    for b in range(3):
        cache.put(1, b, Page(data=bytes(100)))
    cache.get(1, 0)  # refresh block 0
    cache.put(1, 3, Page(data=bytes(100)))  # evicts block 1 (LRU)
    assert cache.peek(1, 0) is not None
    assert cache.peek(1, 1) is None
    assert cache.evictions == 1


def test_page_cache_returns_dirty_victims():
    cache = PageCache(capacity_bytes=200, block_size=100)
    cache.put(1, 0, Page(data=bytes(100), dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    victims = cache.put(1, 2, Page(data=bytes(100)))
    # block 0 was dirty and oldest: it must be in the victim list
    assert any(v[0] == 1 and v[1] == 0 and v[2].dirty for v in victims)


def test_page_cache_never_evicts_fresh_insert():
    cache = PageCache(capacity_bytes=50, block_size=100)  # smaller than a page
    victims = cache.put(1, 0, Page(data=bytes(100)))
    assert cache.peek(1, 0) is not None
    assert victims == []


def test_page_cache_replace_updates_bytes():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100)))
    cache.put(1, 0, Page(data=bytes(40)))
    assert cache.used_bytes == 40
    assert len(cache) == 1


def test_page_cache_drop_file():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100)))
    cache.put(2, 0, Page(data=bytes(100)))
    cache.drop_file(1)
    assert cache.peek(1, 0) is None and cache.peek(2, 0) is not None
    assert cache.used_bytes == 100


def test_page_cache_dirty_pages_iterator():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100), dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    cache.put(2, 0, Page(data=bytes(100), dirty=True))
    all_dirty = list(cache.dirty_pages())
    assert {(f, b) for f, b, _p in all_dirty} == {(1, 0), (2, 0)}
    only_1 = list(cache.dirty_pages(1))
    assert {(f, b) for f, b, _p in only_1} == {(1, 0)}


# -- index equivalence: per-file / per-dir indexes vs. the full scans -------------


class _ScanPageCache:
    """The page cache as it was before the per-file index: dirty_pages
    and drop_file filter the whole LRU."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self._pages = OrderedDict()
        self._bytes = 0
        self.evictions = 0

    def get(self, fileid, block):
        page = self._pages.get((fileid, block))
        if page is not None:
            self._pages.move_to_end((fileid, block))
        return page

    def put(self, fileid, block, page):
        key = (fileid, block)
        old = self._pages.pop(key, None)
        if old is not None:
            self._bytes -= len(old.data)
        self._pages[key] = page
        self._bytes += len(page.data)
        victims = []
        while self._bytes > self.capacity_bytes and len(self._pages) > 1:
            vkey, vpage = self._pages.popitem(last=False)
            if vkey == key:
                self._pages[vkey] = vpage
                self._pages.move_to_end(vkey, last=False)
                break
            self._bytes -= len(vpage.data)
            self.evictions += 1
            if vpage.dirty:
                victims.append((vkey[0], vkey[1], vpage))
        return victims

    def dirty_pages(self, fileid=None):
        for (fid, block), page in list(self._pages.items()):
            if page.dirty and (fileid is None or fid == fileid):
                yield fid, block, page

    def drop_file(self, fileid):
        for k in [k for k in self._pages if k[0] == fileid]:
            self._bytes -= len(self._pages.pop(k).data)


_fids = st.integers(min_value=1, max_value=3)
_blocks = st.integers(min_value=0, max_value=3)
_page_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _fids, _blocks,
                  st.integers(min_value=1, max_value=80), st.booleans()),
        st.tuples(st.just("get"), _fids, _blocks),
        st.tuples(st.just("get"), _fids, _blocks),
        st.tuples(st.just("peek"), _fids, _blocks),
        st.tuples(st.just("flush"), st.one_of(st.none(), _fids),
                  st.lists(st.tuples(_fids, _blocks), max_size=3)),
        st.tuples(st.just("drop"), _fids),
    ),
    max_size=80,
)


def _assert_same_pages(cache, ref):
    assert list(cache._pages.items()) == list(ref._pages.items())
    assert cache.used_bytes == ref._bytes
    assert cache.evictions == ref.evictions
    for fid, blocks in cache._by_file.items():
        assert blocks, "empty per-file index left behind"
        assert list(blocks) == [b for f, b in ref._pages if f == fid]
    assert set(cache._by_file) == {f for f, _b in ref._pages}


@settings(max_examples=300, deadline=None)
@given(ops=_page_ops)
def test_page_cache_index_matches_full_scan(ops):
    cache = PageCache(capacity_bytes=300, block_size=100)
    ref = _ScanPageCache(capacity_bytes=300)
    for op in ops:
        if op[0] == "put":
            _, fid, block, size, dirty = op
            page = Page(data=bytes(size), dirty=dirty)  # shared by both
            assert cache.put(fid, block, page) == ref.put(fid, block, page)
        elif op[0] == "get":
            assert cache.get(op[1], op[2]) is ref.get(op[1], op[2])
        elif op[0] == "peek":
            assert cache.peek(op[1], op[2]) is ref._pages.get((op[1], op[2]))
        elif op[0] == "flush":
            # Clean each yielded page and, like a flush racing new
            # writes, insert (and so maybe evict) between yields.
            _, fid, inserts = op
            got, want = cache.dirty_pages(fid), ref.dirty_pages(fid)
            step = 0
            while True:
                a, b = next(got, None), next(want, None)
                assert a == b
                if a is None:
                    break
                assert a[2] is b[2]
                a[2].dirty = False
                if step < len(inserts):
                    ifid, iblock = inserts[step]
                    page = Page(data=bytes(100), dirty=True)
                    assert cache.put(ifid, iblock, page) == ref.put(ifid, iblock, page)
                step += 1
        else:
            cache.drop_file(op[1])
            ref.drop_file(op[1])
        _assert_same_pages(cache, ref)
    cache.clear()
    assert not cache._by_file and cache.used_bytes == 0


class _ScanNameCache:
    """The name cache before the per-directory index."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.evictions = 0

    def get(self, d, name):
        hit = self._entries.get((d, name))
        if hit is not None:
            self._entries.move_to_end((d, name))
        return hit

    def put(self, d, name, fh_, fileid):
        self._entries[(d, name)] = (fh_, fileid)
        self._entries.move_to_end((d, name))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, d, name):
        self._entries.pop((d, name), None)

    def invalidate_dir(self, d):
        for k in [k for k in self._entries if k[0] == d]:
            del self._entries[k]


_names = st.sampled_from(["a", "b", "c", "d"])
_name_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _fids, _names, st.integers(10, 20)),
        st.tuples(st.just("put"), _fids, _names, st.integers(10, 20)),
        st.tuples(st.just("get"), _fids, _names),
        st.tuples(st.just("invalidate"), _fids, _names),
        st.tuples(st.just("invalidate_dir"), _fids),
        st.tuples(st.just("clear"),),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ops=_name_ops)
def test_name_cache_index_matches_full_scan(ops):
    cache = NameCache(capacity=4)
    ref = _ScanNameCache(capacity=4)
    for op in ops:
        if op[0] == "put":
            _, d, name, fileid = op
            cache.put(d, name, fh(fileid), fileid)
            ref.put(d, name, fh(fileid), fileid)
        elif op[0] == "get":
            assert cache.get(op[1], op[2]) == ref.get(op[1], op[2])
        elif op[0] == "invalidate":
            cache.invalidate(op[1], op[2])
            ref.invalidate(op[1], op[2])
        elif op[0] == "invalidate_dir":
            cache.invalidate_dir(op[1])
            ref.invalidate_dir(op[1])
        else:
            cache.clear()
            ref._entries.clear()
        assert list(cache._entries.items()) == list(ref._entries.items())
        assert cache.evictions == ref.evictions
        index = {(d, n) for d, names in cache._by_dir.items() for n in names}
        assert index == set(ref._entries)
        assert all(cache._by_dir.values()), "empty per-dir index left behind"
