"""Tests for the watch-folder ingestion subsystem (repro.serving.ingest).

The properties that make continuous ingestion trustworthy:

1. **Determinism** — every verdict the watch-folder path writes is
   byte-identical to single-process ``predict`` on the same image, for
   any pool size (each file is one single-image request, the same
   per-request identity the HTTP fronts pin).
2. **Crash safety** — sinks and the checkpoint ledger buffer and commit
   in lockstep, so a kill at any cooperative boundary loses a verdict's
   sink lines and its ledger entry *together*: a restart against the
   same ledger re-processes exactly the unrecorded files and the merged
   output has no duplicate and no missing verdicts.  Group commit makes
   every settled verdict durable as soon as the writer is idle, so the
   crash tests make their lost tail deterministic with a sink whose
   flush fails and a pool that withholds completions.
3. **Hygiene** — half-written files are never read (stability window;
   only a complete ``.npy`` renamed in skips it, on its inotify rename
   proof), poison files are quarantined after N attempts instead of
   wedging the loop, and the live counters surface through the same
   ``health_payload``/``profile_summary`` seams the HTTP front uses.

Pool-backed tests spawn real worker processes, so this file lives in the
serving lane (CI's serving-smoke job), not the fast matrix.
"""

from __future__ import annotations

import errno
import importlib.util
import io
import json
import re
import struct
import sys
import threading
import time
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.core.pipeline import InspectorGadget
from repro.serving import cli
from repro.serving.cli import main as cli_main
from repro.serving.ingest import source as source_module
from repro.serving.ingest import (
    CheckpointLedger,
    CsvSink,
    IngestController,
    JsonlSink,
    MoveSink,
    WatchSource,
    content_key,
    parse_sink_spec,
    start_ingest,
)
from repro.serving.pool import PoolHealth, ServingPool
from repro.serving.protocol import health_payload, retry_after_for

# Fast controller knobs shared by every pool-backed test: quick polls
# and deterministic scanning (no inotify).
FAST = dict(poll_interval_s=0.05, stable_polls=2, use_inotify=False)


def wait_until(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def drop(watch: Path, name: str, image: np.ndarray) -> Path:
    path = watch / name
    np.save(path, image)
    return path


def npy_bytes(array: np.ndarray, version=None) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), version=version)
    return buf.getvalue()


def rename_in(stage: Path, watch: Path, name: str, data: bytes) -> Path:
    """Land ``data`` as ``watch/name`` the atomic way: temp, then rename."""
    (stage / name).write_bytes(data)
    return (stage / name).rename(watch / name)


@pytest.fixture()
def watched(tmp_path):
    """A watch folder where inotify works, and a staging folder beside it."""
    watch, stage = tmp_path / "watch", tmp_path / "stage"
    watch.mkdir()
    stage.mkdir()
    probe = source_module._Inotify.try_create(watch)
    if probe is None:
        pytest.skip("inotify is not available here")
    probe.close()
    return watch, stage


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in
            path.read_text().splitlines() if line]


@pytest.fixture(scope="module")
def images(tiny_ksdd):
    return [item.image for item in tiny_ksdd.images[:8]]


@pytest.fixture(scope="module")
def baseline(serving_profile):
    return InspectorGadget.load(serving_profile)


@pytest.fixture(scope="module")
def expected_rows(baseline, images):
    """Single-image reference probs, the byte-identity target per file."""
    return [baseline.predict([image]).probs[0] for image in images]


@pytest.fixture(scope="module")
def shared_pool(serving_profile):
    """One 1-worker pool reused by the controller tests in this file."""
    pool = ServingPool(serving_profile, workers=1, max_batch=4,
                      max_wait_ms=0.0)
    yield pool
    pool.shutdown()


def assert_verdict_bytes(verdict: dict, expected_row: np.ndarray) -> None:
    """A JSON-round-tripped verdict must recover probs byte-identically."""
    got = np.asarray(verdict["probs"], dtype=np.float64)
    assert got.tobytes() == expected_row.tobytes()


class FullDiskSink(JsonlSink):
    """A JSONL sink whose ``fail_at``-th flush fails with ENOSPC before
    writing anything: one commit hits a full disk, and a retry would
    succeed."""

    def __init__(self, path: str, fail_at: int = 1):
        super().__init__(path)
        self.fail_at = fail_at
        self.flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        if self.flushes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        super().flush()


class WithholdingPool:
    """A pool whose completions after the first ``deliver`` submits never
    reach the controller: those files stay in flight until the kill."""

    def __init__(self, pool, deliver: int):
        self._pool = pool
        self._deliver = deliver
        self._submitted = 0

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def submit(self, images):
        handle = self._pool.submit(images)
        self._submitted += 1
        if self._submitted <= self._deliver:
            return handle
        return SimpleNamespace(add_done_callback=lambda fn: None)


class TestCheckpointLedger:
    def test_record_buffers_until_sync(self, tmp_path):
        ledger = CheckpointLedger(tmp_path / "ledger.jsonl")
        ledger.record("k1", "done", "a.npy")
        assert ledger.should_skip("k1")  # in-memory view is immediate
        assert (tmp_path / "ledger.jsonl").read_text() == ""
        ledger.sync()
        entries = read_jsonl(tmp_path / "ledger.jsonl")
        assert [(e["key"], e["status"]) for e in entries] == [("k1", "done")]
        ledger.close()

    def test_replay_skips_terminal_counts_failures(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = CheckpointLedger(path)
        first.record("done-key", "done", "a.npy")
        first.record("flaky", "failed", "b.npy", error="boom")
        first.record("flaky", "failed", "b.npy", error="boom")
        first.record("poison", "quarantined", "c.npy", error="bad bytes")
        first.close()

        second = CheckpointLedger(path)
        assert second.replayed_entries() == 4
        assert second.should_skip("done-key")
        assert second.should_skip("poison")
        assert not second.should_skip("flaky")  # failed is not terminal
        assert second.failures("flaky") == 2
        assert second.status("never-seen") is None
        second.close()

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CheckpointLedger(path)
        ledger.record("whole", "done", "a.npy")
        ledger.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn", "sta')  # crash mid-append

        replayed = CheckpointLedger(path)
        assert replayed.replayed_entries() == 1
        assert replayed.should_skip("whole")
        assert not replayed.should_skip("torn")
        replayed.close()

    def test_close_without_sync_discards_buffer(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CheckpointLedger(path)
        ledger.record("lost", "done", "a.npy")
        ledger.close(sync=False)
        assert read_jsonl(path) == []

    def test_content_key_is_content_only(self, tmp_path):
        assert content_key(b"same bytes") == content_key(b"same bytes")
        assert content_key(b"same bytes") != content_key(b"other bytes")


class TestSinks:
    VERDICT = {"path": "/w/a.npy", "serial": "a", "key": "k" * 64,
               "label": 1, "confidence": 0.75, "probs": [0.25, 0.75]}

    def test_jsonl_buffers_until_flush(self, tmp_path):
        out = tmp_path / "v.jsonl"
        sink = JsonlSink(str(out))
        sink.write(self.VERDICT)
        assert out.read_text() == ""
        sink.flush()
        assert read_jsonl(out) == [self.VERDICT]
        sink.close()

    def test_jsonl_close_without_flush_discards(self, tmp_path):
        out = tmp_path / "v.jsonl"
        sink = JsonlSink(str(out))
        sink.write(self.VERDICT)
        sink.close(flush=False)
        assert out.read_text() == ""

    def test_csv_header_once_across_restarts(self, tmp_path):
        out = tmp_path / "report.csv"
        first = CsvSink(str(out))
        first.write(self.VERDICT)
        first.close()
        second = CsvSink(str(out))
        second.write(dict(self.VERDICT, serial="b"))
        second.close()
        lines = out.read_text().splitlines()
        assert lines[0] == "serial,label,confidence,key,path"
        assert len(lines) == 3
        assert sum(1 for line in lines if line.startswith("serial,")) == 1

    def test_move_sink_defers_until_flush(self, tmp_path):
        watch = tmp_path / "watch"
        bins = tmp_path / "bins"
        watch.mkdir()
        source = watch / "a.npy"
        source.write_bytes(b"payload")
        sink = MoveSink(str(bins))
        sink.write(dict(self.VERDICT, path=str(source)))
        assert source.exists()  # nothing moves before the commit
        sink.flush()
        assert not source.exists()
        assert (bins / "label_1" / "a.npy").read_bytes() == b"payload"
        # Replaying the same verdict after a crash is a no-op.
        sink.write(dict(self.VERDICT, path=str(source)))
        sink.flush()
        assert (bins / "label_1" / "a.npy").exists()

    def test_parse_sink_spec(self, tmp_path):
        for spec, kind in ((f"jsonl:{tmp_path}/v.jsonl", JsonlSink),
                           (f"csv:{tmp_path}/r.csv", CsvSink),
                           (f"move:{tmp_path}/bins", MoveSink)):
            sink = parse_sink_spec(spec)
            assert isinstance(sink, kind)
            sink.close(flush=False)  # jsonl/csv sinks hold an open file
        for bad in ("jsonl", "jsonl:", "s3:bucket", "plainpath"):
            with pytest.raises(ValueError, match="jsonl:PATH"):
                parse_sink_spec(bad)


class TestWatchSource:
    def test_stability_window_defers_half_written_files(self, tmp_path):
        source = WatchSource(tmp_path, stable_polls=2, use_inotify=False)
        path = tmp_path / "frame.npy"
        path.write_bytes(b"part")
        assert source.poll() == []          # first observation
        path.write_bytes(b"partial-more")   # still being written
        assert source.poll() == []          # signature changed: reset
        assert source.has_pending()
        assert source.poll() == [path]      # two stable polls: report
        assert source.poll() == []          # never re-reported
        assert not source.has_pending()

    def test_changed_content_is_rediscovered(self, tmp_path):
        source = WatchSource(tmp_path, stable_polls=1, use_inotify=False)
        path = tmp_path / "frame.npy"
        path.write_bytes(b"v1")
        assert source.poll() == [path]
        path.write_bytes(b"longer-v2")      # new signature
        assert source.poll() == [path]

    def test_filters_dotfiles_subdirs_and_suffixes(self, tmp_path):
        (tmp_path / ".hidden.npy").write_bytes(b"x")
        (tmp_path / "notes.txt").write_bytes(b"x")
        (tmp_path / ".ingest").mkdir()
        (tmp_path / ".ingest" / "ledger.jsonl").write_bytes(b"x")
        keep = tmp_path / "frame.npy"
        keep.write_bytes(b"x")
        source = WatchSource(tmp_path, stable_polls=1, use_inotify=False)
        assert source.poll() == [keep]

    def test_forget_re_reports(self, tmp_path):
        source = WatchSource(tmp_path, stable_polls=1, use_inotify=False)
        path = tmp_path / "frame.npy"
        path.write_bytes(b"x")
        assert source.poll() == [path]
        source.forget(path)
        assert source.poll() == [path]

    def test_missing_root_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            WatchSource(tmp_path / "nope", use_inotify=False)

    @pytest.fixture()
    def clock(self, monkeypatch):
        """The source module's clock, advanced by hand; sleeps recorded."""
        fake = SimpleNamespace(now=100.0, slept=[])
        monkeypatch.setattr(source_module, "time", SimpleNamespace(
            monotonic=lambda: fake.now, sleep=fake.slept.append))
        return fake

    def test_stability_window_is_measured_in_time(self, tmp_path, clock):
        """Wake-ups caused by other files add polls, not time: a file is
        held until its signature has also lasted ``stable_s``."""
        source = WatchSource(tmp_path, stable_polls=2, stable_s=0.25,
                             use_inotify=False)
        path = tmp_path / "frame.npy"
        path.write_bytes(b"x" * 10)
        for _ in range(4):                  # a burst of polls ~8 ms apart
            assert source.poll() == []
            clock.now += 0.0078125
        clock.now += 0.125
        path.write_bytes(b"x" * 20)         # still being written
        assert source.poll() == []          # window restarts at 100.15625
        clock.now += 0.1875
        assert source.poll() == []          # unchanged 0.1875 s: not yet
        clock.now += 0.0625
        assert source.poll() == [path]      # 0.25 s and >= 2 polls
        assert not source.has_pending()

    def test_stability_window_still_needs_its_polls(self, tmp_path, clock):
        source = WatchSource(tmp_path, stable_polls=3, stable_s=0.5,
                             use_inotify=False)
        path = tmp_path / "frame.npy"
        path.write_bytes(b"x")
        assert source.poll() == []
        clock.now += 10.0
        assert source.poll() == []          # old enough, but 2 of 3 polls
        assert source.poll() == [path]

    def test_wait_ends_with_the_earliest_pending_window(self, tmp_path,
                                                       clock):
        source = WatchSource(tmp_path, stable_polls=2, stable_s=0.25,
                             use_inotify=False)
        source.wait(1.0)                    # nothing pending: full interval
        (tmp_path / "a.npy").write_bytes(b"a")
        assert source.poll() == []          # a first seen at 100.0
        clock.now += 0.125
        (tmp_path / "b.npy").write_bytes(b"b")
        assert source.poll() == []          # b first seen at 100.125
        clock.now += 0.0625
        source.wait(1.0)                    # a's window ends at 100.25
        clock.now += 0.0625
        source.wait(1.0)                    # due now: poll at once
        assert clock.slept == [1.0, 0.0625]
        assert source.poll() == [tmp_path / "a.npy"]

    @pytest.mark.parametrize("version,proved", [
        ((1, 0), True), ((2, 0), True), ((3, 0), False),
    ])
    def test_renamed_in_npy_is_reported_on_the_first_poll(
        self, watched, version, proved
    ):
        """A complete file renamed in needs no window: the poll after the
        wake reports it, although the window here lasts a minute.  Only
        the 1.0 and 2.0 header formats are read."""
        watch, stage = watched
        source = WatchSource(watch, stable_polls=2, stable_s=60.0)
        try:
            path = rename_in(stage, watch, "frame.npy",
                             npy_bytes(np.arange(12.0).reshape(3, 4), version))
            started = time.monotonic()
            source.wait(10.0)               # the record wakes the scanner
            assert time.monotonic() - started < 5.0
            assert source.poll() == ([path] if proved else [])
            assert source.proved == int(proved)
            assert source.poll() == []      # never re-reported
        finally:
            source.close()

    def test_truncated_file_renamed_in_waits_out_the_window(self, watched,
                                                           clock):
        watch, stage = watched
        source = WatchSource(watch, stable_polls=2, stable_s=0.25)
        try:
            data = npy_bytes(np.arange(12.0))
            path = rename_in(stage, watch, "frame.npy", data[:-8])
            assert source.poll() == []      # header declares 8 more bytes
            clock.now += 0.25
            assert source.poll() == [path]
            assert source.proved == 0
        finally:
            source.close()

    def test_rename_then_in_place_rewrite_waits_out_the_window(self, watched,
                                                              clock):
        """A write after the rename voids the proof, even when the file
        ends up the length its header declares."""
        watch, stage = watched
        source = WatchSource(watch, stable_polls=2, stable_s=0.25)
        try:
            path = rename_in(stage, watch, "frame.npy",
                             npy_bytes(np.zeros(12)))
            path.write_bytes(npy_bytes(np.ones(12)))
            assert source.poll() == []
            clock.now += 0.25
            assert source.poll() == [path]
            assert source.proved == 0
        finally:
            source.close()

    def test_proof_serves_only_the_scan_after_its_record(self, watched,
                                                         clock):
        """Files present at start-up have no record, and a file forgotten
        for a retry does not get its spent proof back."""
        watch, stage = watched
        data = npy_bytes(np.arange(12.0))
        old = rename_in(stage, watch, "old.npy", data)
        source = WatchSource(watch, stable_polls=2, stable_s=0.25)
        try:
            new = rename_in(stage, watch, "new.npy", data)
            assert source.poll() == [new]
            source.forget(new)
            assert source.poll() == []
            clock.now += 0.25
            assert source.poll() == [new, old]
            assert source.proved == 1
        finally:
            source.close()

    def test_chunked_writer_is_never_reported_early(self, watched):
        """A file written in place in 20 chunks 30 ms apart is reported
        only whole, while files renamed in every 5 ms wake the scanner and
        take the fast path around it."""
        watch, stage = watched
        source = WatchSource(watch, stable_polls=2, stable_s=0.25)
        data = npy_bytes(np.arange(2500.0))
        chunks = np.array_split(np.frombuffer(data, np.uint8), 20)
        target = watch / "chunked.npy"
        done = threading.Event()

        def write_in_place():
            with open(target, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk.tobytes())
                    fh.flush()
                    time.sleep(0.03)

        def rename_others():
            other = npy_bytes(np.arange(4.0))
            for i in range(10_000):
                if done.is_set():
                    return
                rename_in(stage, watch, f"other{i:05d}.npy", other)
                time.sleep(0.005)

        threads = [threading.Thread(target=write_in_place),
                   threading.Thread(target=rename_others)]
        for thread in threads:
            thread.start()
        reported_size = None
        try:
            deadline = time.monotonic() + 20.0
            while reported_size is None and time.monotonic() < deadline:
                if target in source.poll():
                    reported_size = target.stat().st_size
                source.wait(0.25)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=20.0)
            source.close()
        assert not any(thread.is_alive() for thread in threads)
        assert reported_size == len(data)
        assert source.proved > 0

    def test_queue_overflow_drops_every_proof_in_its_read(self):
        """Records built by hand (kernel mask values from
        <sys/inotify.h>): a name is proved when its last record in the
        read is IN_MOVED_TO, and an IN_Q_OVERFLOW proves nothing."""
        moved_to, close_write, overflow = 0x80, 0x08, 0x4000

        def record(mask, name=b""):
            padded = name + b"\0" * (16 - len(name) % 16) if name else b""
            return struct.pack("iIII", 1, mask, 0, len(padded)) + padded

        read = (record(moved_to, b"a.npy") + record(moved_to, b"b.npy")
                + record(close_write, b"b.npy")
                + record(close_write, b"c.npy") + record(moved_to, b"c.npy"))
        assert source_module._proofs(read) == {"a.npy", "c.npy"}
        assert source_module._proofs(read + record(overflow)) == set()
        assert source_module._proofs(record(overflow) + read) == set()


class TestConfigAndProtocol:
    @pytest.mark.parametrize("field,value", [
        ("ingest_poll_interval_s", 0),
        ("ingest_stable_polls", 0),
        ("ingest_max_in_flight", 0),
        ("ingest_max_failures", 0),
        ("ingest_commit_lines", 0),
        ("ingest_suffixes", ()),
        ("ingest_suffixes", ("npy",)),
    ])
    def test_ingest_knobs_validate(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServingConfig(**{field: value})

    def test_retry_after_only_for_503(self):
        assert retry_after_for(503) == 5
        for status in (200, 400, 404, 413, 500, 504):
            assert retry_after_for(status) is None

    def test_health_payload_ingest_key_is_optional(self):
        health = PoolHealth(workers=[], pending_requests=0,
                            respawns_left=2, failure=None)
        assert "ingest" not in health_payload(health, False)
        stats = {"processed": 3, "in_flight": 1}
        assert health_payload(health, False, ingest=stats)["ingest"] == stats


class TestRecordJson:
    @pytest.fixture()
    def bench_common(self, tmp_path, monkeypatch):
        path = Path(__file__).parent.parent / "benchmarks" / "_common.py"
        spec = importlib.util.spec_from_file_location(
            "_bench_common_under_test", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        return module

    def test_outside_checkout_omits_git_sha(self, bench_common, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(bench_common, "_GIT_SHA", "unknown")
        bench_common.record_json("soak", files_per_sec=12.5)
        (record,) = read_jsonl(tmp_path / "bench.json")
        assert "git_sha" not in record
        assert record["files_per_sec"] == 12.5
        # The ISO timestamp must parse and carry an explicit UTC offset.
        stamp = datetime.fromisoformat(record["ts"])
        assert stamp.tzinfo is not None

    def test_inside_checkout_keeps_git_sha(self, bench_common, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(bench_common, "_GIT_SHA", "abc1234")
        bench_common.record_json("soak")
        (record,) = read_jsonl(tmp_path / "bench.json")
        assert record["git_sha"] == "abc1234"
        assert "ts" in record


class TestEndToEnd:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_verdicts_byte_identical_for_pool_sizes(
        self, serving_profile, images, expected_rows, tmp_path, workers
    ):
        """Acceptance: watch-folder verdicts equal single-process predict
        for pool sizes {1, 2, 4}."""
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        paths = [drop(watch, f"img_{i:02d}.npy", image)
                 for i, image in enumerate(images[:5])]
        with ServingPool(serving_profile, workers=workers, max_batch=4,
                         max_wait_ms=0.0) as pool:
            controller = start_ingest(
                pool, watch, [JsonlSink(str(out))], once=True, **FAST
            )
            assert controller.wait_idle(timeout=60.0)
            controller.stop()
        verdicts = {v["serial"]: v for v in read_jsonl(out)}
        assert sorted(verdicts) == sorted(p.stem for p in paths)
        for i, path in enumerate(paths):
            verdict = verdicts[path.stem]
            assert verdict["key"] == content_key(path.read_bytes())
            assert_verdict_bytes(verdict, expected_rows[i])

    @pytest.mark.parametrize("commit_lines", [None, 1])
    def test_idle_means_durable(self, shared_pool, images, tmp_path,
                                commit_lines):
        """Once wait_idle returns — before any stop() — every verdict is
        on disk in the sink and the ledger, committed in groups.  The scan
        thread, the writer and the dispatcher share the registry and the
        counters, so thread switches are forced far more often than usual
        to shake out a lost update or an early idle."""
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        for i, image in enumerate(images):
            drop(watch, f"img_{i:02d}.npy", image)
        knobs = {} if commit_lines is None else {"commit_lines": commit_lines}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        controller = start_ingest(
            shared_pool, watch, [JsonlSink(str(out))], ledger_path,
            **knobs, **FAST
        )
        try:
            assert controller.wait_idle(timeout=60.0)
            stats = controller.stats()
            assert stats["processed"] == 8
            assert len(read_jsonl(out)) == 8
            assert [e["status"] for e in read_jsonl(ledger_path)] == \
                ["done"] * 8
            assert 1 <= stats["commits"] <= stats["processed"]
            if commit_lines == 1:
                assert stats["commits"] == stats["processed"]
            # The window is derived from the knobs: (2 - 1) polls' worth.
            assert controller.source.stable_s == pytest.approx(0.05)
        finally:
            sys.setswitchinterval(interval)
            controller.stop()

    def test_crash_at_commit_boundary_then_restart(
        self, shared_pool, images, expected_rows, tmp_path
    ):
        """Satellite: a crash that loses the uncommitted tail must lose the
        sink lines and ledger entries *together*, and a restart on the same
        ledger re-processes exactly the lost files — no dup, no missing.

        The crash is a commit that fails: the sink's second flush hits a
        full disk, which must fail the controller loudly (not kill the
        writer silently and leave wait_idle hanging).  A failed commit is
        final: stop() must not retry it, although a third flush would
        succeed."""
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        for i, image in enumerate(images):
            drop(watch, f"img_{i:02d}.npy", image)

        first = start_ingest(
            shared_pool, watch, [FullDiskSink(str(out), fail_at=2)],
            ledger_path, commit_lines=3, **FAST
        )
        assert first.wait_idle(timeout=60.0)
        stats = first.stats()
        assert stats["failure"].startswith("commit failed: ")
        assert "No space left on device" in stats["failure"]
        assert stats["running"] is False
        assert stats["commits"] == 1
        assert shared_pool.ingest_stats()["failure"] == stats["failure"]
        first.stop()  # the CLI's drain + flush, after the failed commit
        assert first.stats()["commits"] == 1
        # One commit of at most commit_lines verdicts landed; the rest
        # were lost from sink and ledger in lockstep.
        committed = len(read_jsonl(ledger_path))
        assert committed == len(read_jsonl(out)) == stats["processed"]
        assert 1 <= committed <= 3

        second = start_ingest(
            shared_pool, watch, [JsonlSink(str(out))], ledger_path, **FAST
        )
        assert second.wait_idle(timeout=60.0)
        stats = second.stats()
        second.stop()
        assert stats["skipped"] == committed
        assert stats["processed"] == 8 - committed

        verdicts = read_jsonl(out)
        serials = [v["serial"] for v in verdicts]
        assert sorted(serials) == [f"img_{i:02d}" for i in range(8)]
        assert len(set(serials)) == 8  # no duplicates
        for verdict in verdicts:
            index = int(verdict["serial"].split("_")[1])
            assert_verdict_bytes(verdict, expected_rows[index])

    def test_hard_kill_mid_flight_then_restart(
        self, shared_pool, images, expected_rows, tmp_path
    ):
        """Satellite: kill with files in flight (no drain), restart on the
        same ledger — still no duplicate and no missing verdicts."""
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        for i, image in enumerate(images):
            drop(watch, f"img_{i:02d}.npy", image)

        # Files are submitted in name order; img_05..07 never settle.
        first = start_ingest(
            WithholdingPool(shared_pool, deliver=5), watch,
            [JsonlSink(str(out))], ledger_path, commit_lines=3, **FAST
        )
        assert wait_until(lambda: first.stats()["processed"] == 5
                          and first.stats()["in_flight"] == 3)
        first.stop(drain=False, flush=False)  # abandon in-flight work
        lost = {f"img_{i:02d}" for i in range(5, 8)}
        assert len(read_jsonl(out)) == 5  # the crash really lost verdicts
        assert len(read_jsonl(out)) == len(read_jsonl(ledger_path))

        second = start_ingest(
            shared_pool, watch, [JsonlSink(str(out))], ledger_path, **FAST
        )
        assert second.wait_idle(timeout=60.0)
        stats = second.stats()
        second.stop()
        assert stats["skipped"] == 5
        assert stats["processed"] == 3
        verdicts = read_jsonl(out)
        assert {v["serial"] for v in verdicts[5:]} == lost
        serials = [v["serial"] for v in verdicts]
        assert sorted(serials) == [f"img_{i:02d}" for i in range(8)]
        for verdict in verdicts:
            index = int(verdict["serial"].split("_")[1])
            assert_verdict_bytes(verdict, expected_rows[index])

    def test_poison_files_quarantined_good_files_served(
        self, shared_pool, images, expected_rows, tmp_path
    ):
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        good = drop(watch, "good.npy", images[0])
        undecodable = watch / "garbage.npy"
        undecodable.write_bytes(b"this is not an npy file")
        wrong_shape = drop(watch, "vector.npy", np.arange(5.0))

        controller = start_ingest(
            shared_pool, watch, [JsonlSink(str(out))],
            tmp_path / "ledger.jsonl", max_failures=2, **FAST
        )
        assert wait_until(
            lambda: controller.stats()["quarantined"] == 2
            and controller.stats()["processed"] == 1
        )
        stats = controller.stats()
        # The scan thread's failure entries are on disk once counted,
        # before any stop() — the writer's idleness does not delay them.
        on_disk = [e["status"] for e in read_jsonl(tmp_path / "ledger.jsonl")]
        assert on_disk.count("failed") == stats["failed"]
        assert on_disk.count("quarantined") == 2
        controller.stop()
        assert stats["failed"] >= 4  # two attempts per poison file
        quarantine = watch / ".ingest" / "quarantine"
        assert sorted(p.name for p in quarantine.iterdir()) == [
            "garbage.npy", "vector.npy",
        ]
        assert not undecodable.exists() and not wrong_shape.exists()
        assert good.exists()
        (verdict,) = read_jsonl(out)
        assert verdict["serial"] == "good"
        assert_verdict_bytes(verdict, expected_rows[0])
        # Terminal ledger entries: neither poison key re-enters the loop.
        assert controller.ledger.should_skip(
            content_key(b"this is not an npy file")
        )

    def test_renamed_in_files_take_the_fast_path(
        self, shared_pool, images, expected_rows, watched, tmp_path
    ):
        """With inotify on, files renamed in are reported on their rename
        proof and verdicted byte-identically; a truncated file renamed in
        still waits out the window, and is retried and quarantined."""
        watch, stage = watched
        out = tmp_path / "verdicts.jsonl"
        controller = start_ingest(
            shared_pool, watch, [JsonlSink(str(out))],
            tmp_path / "ledger.jsonl", max_failures=2,
            poll_interval_s=0.05, stable_polls=2,  # FAST, inotify on
        )
        for i, image in enumerate(images[:4]):
            rename_in(stage, watch, f"img_{i:02d}.npy", npy_bytes(image))
        torn = npy_bytes(images[4])
        rename_in(stage, watch, "torn.npy", torn[:len(torn) // 2])
        assert wait_until(
            lambda: controller.stats()["processed"] == 4
            and controller.stats()["quarantined"] == 1
        )
        stats = controller.stats()
        controller.stop()
        assert stats["proved"] == 4
        assert stats["failed"] == 2
        verdicts = {v["serial"]: v for v in read_jsonl(out)}
        assert sorted(verdicts) == [f"img_{i:02d}" for i in range(4)]
        for i in range(4):
            assert_verdict_bytes(verdicts[f"img_{i:02d}"], expected_rows[i])
        quarantine = watch / ".ingest" / "quarantine"
        assert [p.name for p in quarantine.iterdir()] == ["torn.npy"]

    def test_scan_error_fails_loudly(self, shared_pool, tmp_path):
        """An unexpected error on the scan thread (here: the quarantine
        bin cannot be created) fails the controller instead of leaving
        wait_idle hanging on a dead scanner."""
        watch = tmp_path / "watch"
        watch.mkdir()
        (watch / "garbage.npy").write_bytes(b"this is not an npy file")
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the bin's parent should be")
        controller = start_ingest(
            shared_pool, watch, [], tmp_path / "ledger.jsonl",
            quarantine_dir=blocker / "bin", max_failures=1, **FAST
        )
        assert controller.wait_idle(timeout=20.0)
        stats = controller.stats()
        controller.stop()
        assert stats["failure"].startswith("scan failed: ")
        assert stats["running"] is False

    def test_move_sink_routes_and_dedupes_with_ledger(
        self, shared_pool, images, tmp_path
    ):
        watch = tmp_path / "watch"
        bins = tmp_path / "bins"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        for i, image in enumerate(images[:3]):
            drop(watch, f"img_{i:02d}.npy", image)
        controller = start_ingest(
            shared_pool, watch,
            [JsonlSink(str(out)), MoveSink(str(bins))],
            tmp_path / "ledger.jsonl", once=True, **FAST
        )
        assert controller.wait_idle(timeout=60.0)
        controller.stop()
        verdicts = read_jsonl(out)
        assert len(verdicts) == 3
        moved = sorted(p.name for label_dir in bins.iterdir()
                       for p in label_dir.iterdir())
        assert moved == ["img_00.npy", "img_01.npy", "img_02.npy"]
        assert list(watch.glob("*.npy")) == []  # watch folder stays clean

    def test_observability_wiring(self, shared_pool, images, tmp_path):
        """Counters flow through pool.ingest_stats into the shared
        health/profile payload builders the HTTP front uses."""
        watch = tmp_path / "watch"
        watch.mkdir()
        drop(watch, "img.npy", images[0])
        controller = start_ingest(
            shared_pool, watch, [JsonlSink("-")],
            tmp_path / "ledger.jsonl", **FAST
        )
        assert wait_until(lambda: controller.stats()["processed"] == 1)
        stats = shared_pool.ingest_stats()
        assert stats["processed"] == 1
        assert stats["watch_dir"] == str(watch)
        assert stats["failure"] is None
        payload = health_payload(shared_pool.health(), False,
                                 ingest=shared_pool.ingest_stats())
        assert payload["ingest"]["processed"] == 1
        assert payload["ingest"]["proved"] == 0  # no inotify: the window
        summary = shared_pool.profile_summary()
        assert summary["ingest"]["watch_dir"] == str(watch)
        assert summary["ingest"]["sinks"] == ["jsonl:-"]
        assert summary["ingest"]["ledger"] == str(tmp_path / "ledger.jsonl")
        knobs = ("poll_interval_s", "stable_polls", "stable_s",
                 "max_in_flight", "max_failures", "commit_lines",
                 "suffixes", "inotify")
        assert {k: summary["ingest"][k] for k in knobs} == {
            "poll_interval_s": 0.05, "stable_polls": 2, "stable_s": 0.05,
            "max_in_flight": 16, "max_failures": 3, "commit_lines": 32,
            "suffixes": [".npy"], "inotify": False,
        }
        controller.stop()
        assert shared_pool.ingest_stats()["running"] is False


class TestCli:
    def test_watch_once_end_to_end(self, serving_profile, images,
                                   expected_rows, tmp_path, capsys):
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        paths = [drop(watch, f"img_{i:02d}.npy", image)
                 for i, image in enumerate(images[:3])]
        code = cli_main([
            "--profile", str(serving_profile), "--workers", "1",
            "--watch", str(watch), "--sink", f"jsonl:{out}",
            "--ledger", str(tmp_path / "ledger.jsonl"),
            "--once", "--poll-interval-s", "0.05", "--quiet",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert f"watching {watch}" in captured.out
        # The files are there before start-up, so none takes the rename
        # proof; how many commits the writer groups them into is timing.
        assert re.search(
            r"ingest drained: 3 processed, 0 skipped, 0 failed, "
            r"0 quarantined, 0 proved, 0 retries, [1-3] commits\n",
            captured.err), captured.err
        verdicts = {v["serial"]: v for v in read_jsonl(out)}
        assert sorted(verdicts) == sorted(p.stem for p in paths)
        for i, path in enumerate(paths):
            assert_verdict_bytes(verdicts[path.stem], expected_rows[i])

    def test_commit_failure_exits_3(self, serving_profile, images,
                                    tmp_path, capsys, monkeypatch):
        """A full disk at commit time must fail the daemon (exit 3), not
        hang ``--watch --once`` on a dead writer; the failed commit is
        not retried at shutdown, so nothing reaches the ledger."""
        watch = tmp_path / "watch"
        watch.mkdir()
        out = tmp_path / "verdicts.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        drop(watch, "img_00.npy", images[0])
        monkeypatch.setattr(cli, "parse_sink_spec",
                            lambda spec: FullDiskSink(spec.split(":", 1)[1]))
        code = cli_main([
            "--profile", str(serving_profile), "--workers", "1",
            "--watch", str(watch), "--sink", f"jsonl:{out}",
            "--ledger", str(ledger_path),
            "--once", "--poll-interval-s", "0.05", "--quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: ingest failed: commit failed: " in err
        assert "No space left on device" in err
        assert read_jsonl(ledger_path) == []
        assert read_jsonl(out) == []

    def test_bad_sink_spec_is_usage_error(self, serving_profile, tmp_path,
                                          capsys):
        watch = tmp_path / "watch"
        watch.mkdir()
        code = cli_main([
            "--profile", str(serving_profile),
            "--watch", str(watch), "--sink", "s3:bucket", "--once",
        ])
        assert code == 2
        assert "invalid sink spec" in capsys.readouterr().err

    def test_missing_watch_dir_is_usage_error(self, serving_profile,
                                              tmp_path, capsys):
        code = cli_main([
            "--profile", str(serving_profile),
            "--watch", str(tmp_path / "nope"), "--once",
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_ingest_knob_is_usage_error(self, serving_profile, tmp_path,
                                            capsys):
        watch = tmp_path / "watch"
        watch.mkdir()
        code = cli_main([
            "--profile", str(serving_profile),
            "--watch", str(watch), "--poll-interval-s", "0",
        ])
        assert code == 2
        assert "ingest_poll_interval_s" in capsys.readouterr().err
