"""Self-tests for the benchmark's own arithmetic and instrumentation.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from probe import OpProbe, TimedClient  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeSim:
    now = 0.0


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_calls():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    leaf = rec.wrap(lambda: clock.advance(2.0), "leaf")

    def mid():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(3.0)

    rec.wrap(mid, "mid")()
    assert rec.self_times() == {"mid": 4.0, "leaf": 4.0}
    assert rec.calls["leaf"] == 2 and rec.calls["mid"] == 1
    # the leaves' parent is the mid span; all share its trace
    assert list(rec.parent) == [spans.NO_PARENT, 0, 0]
    assert len(set(rec.trace)) == 1


def test_self_time_of_generator_spans_counts_only_their_steps():
    clock = FakeClock()
    sim = FakeSim()
    rec = spans.SpanRecorder(clock=clock)
    rec.sim = sim
    leaf = rec.wrap(lambda: clock.advance(2.0), "leaf")

    def inner_gen():
        clock.advance(1.0)
        x = yield "wait"
        clock.advance(2.0)
        leaf()
        return x * 2

    inner = rec.wrap(inner_gen, "inner")

    def outer_gen():
        clock.advance(1.0)
        y = yield from inner()
        clock.advance(5.0)
        return y

    g = rec.wrap(outer_gen, "outer")()
    assert next(g) == "wait"
    clock.advance(100.0)  # host time between steps belongs to nobody
    sim.now = 0.25
    with pytest.raises(StopIteration) as stop:
        g.send(21)
    assert stop.value.value == 42
    assert rec.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 2.0}
    assert rec.calls == {"outer": 1, "inner": 1, "leaf": 1}
    assert rec.virtual["inner"] == [0.25] and rec.virtual["outer"] == [0.25]
    # two steps each: every step is one host span
    assert list(rec.name).count(rec.names.index("inner")) == 2


def test_generator_wrapper_forwards_thrown_exceptions_and_close():
    rec = spans.SpanRecorder(clock=FakeClock())

    def catcher():
        try:
            yield 1
        except KeyError:
            return "caught"

    g = rec.wrap(catcher, "c")()
    next(g)
    with pytest.raises(StopIteration) as stop:
        g.throw(KeyError("x"))
    assert stop.value.value == "caught"

    closed = []

    def closable():
        try:
            yield 1
        finally:
            closed.append(True)

    g = rec.wrap(closable, "d")()
    next(g)
    g.close()
    assert closed == [True]


def test_children_of_the_event_loop_start_new_traces():
    rec = spans.SpanRecorder(clock=FakeClock())
    step = rec.wrap(lambda: None, "step")

    def loop():
        step()
        step()

    rec.wrap(loop, "sim.run")()
    loop_trace, a, b = rec.trace
    assert a != b and loop_trace not in (a, b)


def test_sized_wrappers_sum_bytes():
    rec = spans.SpanRecorder(clock=FakeClock())
    enc = rec.wrap(lambda self, data: data, "cipher", size_arg=1)
    enc(None, b"abc")
    enc(None, b"de")
    assert rec.amount["cipher"] == 5


def test_spans_round_trip_through_the_written_file(tmp_path):
    from array import array

    rec = spans.SpanRecorder(clock=FakeClock())
    rec.wrap(lambda: None, "x")()
    path = tmp_path / "spans.bin"
    rec.write(str(path))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        names = array("i")
        names.fromfile(fh, header["count"])
    assert header["names"][names[0]] == "x"


# -- percentiles ---------------------------------------------------------------


def test_tail_rule_needs_ten_samples_beyond():
    assert stats.tail_pct(1000) == 99.0
    assert stats.beyond(1000, 99.0) == 10
    assert stats.tail_pct(999) == 95.0
    assert stats.tail_pct(100) == 90.0
    assert stats.tail_pct(20) == 50.0
    for n in (20, 57, 200, 999, 1000, 5000):
        assert stats.beyond(n, stats.tail_pct(n)) >= stats.MIN_BEYOND


def test_nearest_rank_percentiles():
    data = [float(i) for i in range(1, 1001)]
    assert stats.nearest_rank(data, 50.0) == 500.0
    assert stats.nearest_rank(data, 99.0) == 990.0
    assert stats.tail_percentile(list(reversed(data))) == (99.0, 990.0)
    assert stats.nearest_rank([7.0], 99.0) == 7.0


def test_failed_operations_sort_past_every_latency():
    lat = [1.0] * 995 + [math.inf] * 5
    assert stats.tail_percentile(lat) == (99.0, 1.0)
    lat = [1.0] * 985 + [math.inf] * 15
    assert stats.tail_percentile(lat)[1] == math.inf


# -- operation counting ---------------------------------------------------------


class FakeError(Exception):
    pass


class FakeFile:
    def __init__(self, path):
        self.path = path


class FakeClient:
    """Generator API like NfsClient's; ``write_file`` calls its own
    ``open``/``write``/``close`` as the real client does."""

    def __init__(self, sim, corrupt=False):
        self.sim = sim
        self.files = {}
        self.corrupt = corrupt

    def _tick(self):
        self.sim.now += 0.001
        yield None

    def open(self, path, create=False, truncate=False):
        yield from self._tick()
        if path not in self.files:
            if not create:
                raise FakeError(path)
            self.files[path] = b""
        return FakeFile(path)

    def write(self, f, offset, data):
        yield from self._tick()
        buf = self.files[f.path]
        self.files[f.path] = buf[:offset] + data + buf[offset + len(data):]

    def close(self, f):
        yield from self._tick()

    def write_file(self, path, data):
        f = yield from self.open(path, create=True, truncate=True)
        yield from self.write(f, 0, data)
        yield from self.close(f)
        return f

    def read_file(self, path):
        yield from self._tick()
        data = self.files[path]
        return data[:-1] if self.corrupt else data

    def unlink(self, path):
        yield from self._tick()
        if path not in self.files:
            raise FakeError(path)
        del self.files[path]


def drive(gen):
    """Run a generator that yields None to completion."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_only_outermost_operations_are_counted():
    sim = FakeSim()
    probe = OpProbe(error_type=FakeError)
    client = TimedClient(FakeClient(sim), sim, probe)
    drive(client.write_file("/a", b"hello"))
    assert probe.attempted == 1
    assert probe.latencies == [pytest.approx(0.003)]
    f = drive(client.open("/a"))
    drive(client.write(f, 5, b"!"))
    assert drive(client.read_file("/a")) == b"hello!"
    assert probe.attempted == 4 and probe.failed == 0 and probe.corrupt == 0


def test_failures_the_workload_swallows_are_counted():
    sim = FakeSim()
    probe = OpProbe(error_type=FakeError)
    client = TimedClient(FakeClient(sim), sim, probe)

    def workload():
        yield from client.write_file("/a", b"x")
        try:
            yield from client.unlink("/missing")
        except FakeError:
            pass  # swallowed, as PostMark does

    drive(workload())
    assert (probe.attempted, probe.failed) == (2, 1)
    assert probe.latencies[1] == math.inf


def test_corrupt_whole_file_reads_are_failures():
    sim = FakeSim()
    probe = OpProbe(error_type=FakeError)
    client = TimedClient(FakeClient(sim, corrupt=True), sim, probe)
    drive(client.write_file("/a", b"payload"))
    drive(client.read_file("/a"))
    assert (probe.corrupt, probe.failed) == (1, 1)


# -- the spec and the program ---------------------------------------------------


def test_committed_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert fh.read() == spec.render()


def test_spec_obeys_the_naming_limits():
    doc = spec.benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            assert name_re.match(entry["name"]) and entry["name"] not in seen
            seen.add(entry["name"])
            if "unit" in entry:
                assert unit_re.match(entry["unit"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_spans_leave_the_simulation_unchanged():
    """A traced run must produce the same registry as an untraced one."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.harness import run_workload
    from repro.workloads.iozone import IOzoneWriteRead

    def run():
        return run_workload("nfs-v3", lambda: IOzoneWriteRead(file_size=256 * 1024))

    plain = run()
    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        traced = run()
    finally:
        spans.uninstall(undo)
    assert traced.stats == plain.stats
    assert traced.total == plain.total
    assert rec.calls["rpc.call"] > 0 and rec.calls["xdr.codec"] > 0
    assert rec.self_times()["sim.run"] > 0
    assert run().stats == plain.stats  # uninstall restored everything
