"""RPC record marking: framing, fragmentation, incremental reassembly."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.rpc.errors import RpcError
from repro.rpc.record import (
    LAST_FRAGMENT,
    RecordReader,
    RecordWriter,
    frame_record,
)
from tests._legacy_codecs import OldRecordReader, old_frame_record


def test_single_fragment_framing():
    framed = frame_record(b"hello")
    header = struct.unpack(">I", framed[:4])[0]
    assert header == (LAST_FRAGMENT | 5)
    assert framed[4:] == b"hello"


def test_empty_record_framing():
    framed = frame_record(b"")
    assert framed == struct.pack(">I", LAST_FRAGMENT)
    reader = RecordReader()
    reader.feed(framed)
    assert reader.next_record() == b""


def test_multi_fragment_framing_and_reassembly():
    record = bytes(range(256)) * 10  # 2560 bytes
    framed = frame_record(record, fragment_size=1000)
    # 3 fragments: 1000 + 1000 + 560
    assert len(framed) == len(record) + 3 * 4
    reader = RecordReader()
    reader.feed(framed)
    assert reader.next_record() == record
    assert reader.next_record() is None


def test_byte_at_a_time_reassembly():
    records = [b"first", b"second record", b""]
    stream = b"".join(frame_record(r, fragment_size=4) for r in records)
    reader = RecordReader()
    out = []
    for i in range(len(stream)):
        reader.feed(stream[i : i + 1])
        while True:
            rec = reader.next_record()
            if rec is None:
                break
            out.append(rec)
    assert out == records


def test_interleaved_feed_and_pop():
    reader = RecordReader()
    reader.feed(frame_record(b"aaa") + frame_record(b"bbb"))
    assert reader.pending == 2
    assert reader.next_record() == b"aaa"
    assert reader.next_record() == b"bbb"
    assert reader.next_record() is None


def test_oversized_record_rejected():
    reader = RecordReader(max_record=100)
    with pytest.raises(RpcError, match="exceeds"):
        reader.feed(frame_record(b"x" * 200))


def test_bad_fragment_size_rejected():
    with pytest.raises(RpcError):
        frame_record(b"x", fragment_size=0)


def test_writer_writes_through_sink():
    chunks = []

    class Sink:
        def send(self, data):
            chunks.append(data)

    RecordWriter(Sink()).write(b"payload")
    reader = RecordReader()
    for c in chunks:
        reader.feed(c)
    assert reader.next_record() == b"payload"


@given(
    st.lists(st.binary(max_size=400), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=97),
)
def test_property_stream_reassembly(records, fragment_size, chunk_size):
    """Any records, any fragmentation, any stream chunking: reassembles."""
    stream = b"".join(frame_record(r, fragment_size=fragment_size) for r in records)
    reader = RecordReader()
    out = []
    for off in range(0, len(stream), chunk_size):
        reader.feed(stream[off : off + chunk_size])
        while True:
            rec = reader.next_record()
            if rec is None:
                break
            out.append(rec)
    assert out == records



# -- against the extend/del/bytes() reassembler ------------------------------------
#
# A single-fragment record is framed with one concatenation, and whole
# single-fragment records at the front of a fed chunk are popped with
# one copy; tests/_legacy_codecs.py keeps the versions they replaced.


def split(stream, cuts):
    """``stream`` in chunks ending at the sorted cut points."""
    edges = [0] + sorted(c % (len(stream) + 1) for c in cuts) + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def reassemble(reader, chunks):
    """Feed every chunk, popping as it goes: the records in order, or
    the class of what feeding raised and the records before it."""
    out = []
    for chunk in chunks:
        try:
            reader.feed(chunk)
        except Exception as exc:  # compared across both readers
            return out, type(exc)
        while (rec := reader.next_record()) is not None:
            out.append(rec)
    return out, None


@given(
    st.lists(st.binary(max_size=300), max_size=8),
    st.integers(min_value=1, max_value=400),
)
def test_framing_matches_old(records, fragment_size):
    for rec in records:
        assert frame_record(rec, fragment_size) == old_frame_record(rec, fragment_size)
        assert frame_record(bytearray(rec), fragment_size) == old_frame_record(rec, fragment_size)


@given(
    st.lists(st.binary(max_size=300), max_size=8),
    st.lists(st.integers(min_value=1, max_value=64) | st.just(1 << 20), min_size=1),
    st.lists(st.integers(min_value=0, max_value=5000), max_size=12),
    st.sampled_from([1 << 28, 300, 150]),
)
def test_reader_matches_old_for_any_chunking(records, sizes, cuts, max_record):
    """Single- and multi-fragment records (one fragment size each), any
    chunk boundaries, and records over ``max_record``."""
    stream = b"".join(
        frame_record(r, sizes[i % len(sizes)]) for i, r in enumerate(records)
    )
    chunks = split(stream, cuts)
    new = reassemble(RecordReader(max_record), chunks)
    assert new == reassemble(OldRecordReader(max_record), chunks)
    if max_record == 1 << 28:
        assert new == (records, None)


@given(st.binary(max_size=64), st.lists(st.integers(0, 80), max_size=4))
def test_reader_matches_old_on_garbage(stream, cuts):
    chunks = split(stream, cuts)
    assert (reassemble(RecordReader(max_record=40), chunks)
            == reassemble(OldRecordReader(max_record=40), chunks))


def test_whole_records_in_one_chunk_are_bytes():
    reader = RecordReader()
    reader.feed(bytearray(frame_record(b"abc") + frame_record(b"de")))
    recs = [reader.next_record(), reader.next_record()]
    assert recs == [b"abc", b"de"]
    assert all(type(r) is bytes for r in recs)


def test_feed_after_a_partial_record_keeps_order():
    a, b = frame_record(b"first"), frame_record(b"second")
    reader = RecordReader()
    reader.feed(a[:3])
    reader.feed(a[3:] + b)
    assert [reader.next_record(), reader.next_record()] == [b"first", b"second"]
