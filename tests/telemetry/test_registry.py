"""The telemetry registry itself: modes, hooks, snapshot, export."""

import json
import threading
import warnings

import pytest

from repro import telemetry


class TestModes:
    def test_default_is_counters(self):
        assert telemetry.mode() == "counters"
        assert telemetry.enabled()
        assert not telemetry.events_enabled()

    def test_env_controls_mode(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        assert telemetry.mode() == "off"
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "trace")
        assert telemetry.mode() == "trace"
        assert telemetry.events_enabled()

    def test_env_reread_lazily_without_reimport(self, monkeypatch):
        assert telemetry.mode() == "counters"
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        assert telemetry.mode() == "off"

    def test_invalid_env_falls_back_to_counters(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "verbose")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert telemetry.mode() == "counters"

    def test_set_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_TELEMETRY", "off")
        telemetry.set_mode("trace")
        assert telemetry.mode() == "trace"
        telemetry.set_mode(None)
        assert telemetry.mode() == "off"

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            telemetry.set_mode("loud")


class TestCounters:
    def test_count_accumulates(self):
        telemetry.count("x")
        telemetry.count("x", 4)
        assert telemetry.snapshot()["counters"]["x"] == 5

    def test_off_mode_records_nothing(self):
        telemetry.set_mode("off")
        telemetry.count("x")
        telemetry.record_time("t", 1.0)
        telemetry.kernel_call("c", 1.0, 100)
        telemetry.event("e")
        telemetry.set_mode("counters")
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["kernels"] == {}

    def test_thread_safety(self):
        def worker():
            for _ in range(1000):
                telemetry.count("races")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.snapshot()["counters"]["races"] == 8000


class TestTimers:
    def test_record_time_aggregates(self):
        telemetry.record_time("t", 2.0)
        telemetry.record_time("t", 4.0)
        agg = telemetry.snapshot()["timers"]["t"]
        assert agg["count"] == 2
        assert agg["total_s"] == pytest.approx(6.0)
        assert agg["mean_s"] == pytest.approx(3.0)
        assert agg["min_s"] == pytest.approx(2.0)
        assert agg["max_s"] == pytest.approx(4.0)

    def test_timed_records_on_clean_exit(self):
        with telemetry.timed("block"):
            pass
        assert telemetry.snapshot()["timers"]["block"]["count"] == 1

    def test_timed_skips_raised_body(self):
        with pytest.raises(RuntimeError):
            with telemetry.timed("block"):
                raise RuntimeError("boom")
        assert "block" not in telemetry.snapshot()["timers"]


class TestKernels:
    def test_kernel_call_rates(self):
        telemetry.kernel_call("c", 0.5, 1000)
        telemetry.kernel_call("c", 0.5, 1000)
        k = telemetry.snapshot()["kernels"]["c"]
        assert k["calls"] == 2
        assert k["points"] == 2000
        assert k["points_per_s"] == pytest.approx(2000.0)

    def test_zero_time_yields_none_not_inf(self):
        telemetry.kernel_call("c", 0.0, 1000)
        assert telemetry.snapshot()["kernels"]["c"]["points_per_s"] is None


class TestTrace:
    def test_events_only_in_trace_mode(self):
        telemetry.event("ignored", a=1)
        telemetry.set_mode("trace")
        telemetry.event("seen", a=2)
        snap = telemetry.snapshot()
        names = [e["name"] for e in snap["trace"]]
        assert names == ["seen"]
        assert snap["trace"][0]["a"] == 2

    def test_snapshot_omits_trace_outside_trace_mode(self):
        assert "trace" not in telemetry.snapshot()

    def test_ring_buffer_bounded(self):
        telemetry.set_mode("trace")
        for i in range(telemetry.TRACE_CAPACITY + 50):
            telemetry.event("e", i=i)
        trace = telemetry.snapshot()["trace"]
        assert len(trace) == telemetry.TRACE_CAPACITY
        assert trace[-1]["i"] == telemetry.TRACE_CAPACITY + 49


class TestSnapshotSchema:
    def test_snapshot_is_tagged(self):
        snap = telemetry.snapshot()
        assert snap["schema"] == telemetry.STATS_SCHEMA == "snowflake-stats/1"

    def test_snapshot_carries_histogram_section(self):
        telemetry.record_time("t", 0.1)
        snap = telemetry.snapshot()
        assert snap["histograms"]["t"][0]["count"] == 1

    def test_snapshot_under_concurrent_key_registration(self):
        # regression companion to the shard-registration race: threads
        # minting brand-new counter/timer/kernel keys while the main
        # thread snapshots must never raise or lose an entry
        stop = threading.Event()
        started = threading.Barrier(4)

        def churn(tag):
            started.wait()
            for i in range(300):
                telemetry.count(f"c.{tag}.{i}")
                telemetry.record_time(f"t.{tag}.{i}", 0.001)
                telemetry.kernel_call(f"b{tag}", 0.001, 10)
            stop.set()

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(3)
        ]
        for t in threads:
            t.start()
        started.wait()
        while not stop.is_set():
            snap = telemetry.snapshot()
            json.dumps(snap)  # a torn snapshot would not serialize
        for t in threads:
            t.join()
        snap = telemetry.snapshot()
        assert sum(
            1 for k in snap["counters"] if k.startswith("c.")
        ) == 3 * 300
        assert sum(
            1 for k in snap["timers"] if k.startswith("t.")
        ) == 3 * 300


class TestReset:
    def test_reset_zeroes_everything(self):
        telemetry.count("x")
        telemetry.record_time("t", 1.0)
        telemetry.kernel_call("c", 1.0, 10)
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert snap["kernels"] == {}


class TestExport:
    def test_bench_json_schema(self, tmp_path):
        telemetry.count("x", 3)
        telemetry.kernel_call("c", 0.5, 500)
        path = telemetry.export_bench_json(tmp_path / "BENCH_pipeline.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == telemetry.BENCH_SCHEMA
        assert isinstance(doc["version"], str)
        assert isinstance(doc["unix_time"], float)
        assert set(doc["host"]) == {"platform", "machine", "python"}
        assert doc["counters"]["x"] == 3
        assert doc["kernels"]["c"]["points_per_s"] == pytest.approx(1000.0)

    def test_bench_json_keeps_stats_schema_alongside(self, tmp_path):
        # the bench envelope owns "schema"; the embedded registry
        # snapshot's tag is preserved under "stats_schema"
        path = telemetry.export_bench_json(tmp_path / "BENCH_x.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == telemetry.BENCH_SCHEMA
        assert doc["stats_schema"] == telemetry.STATS_SCHEMA

    def test_bench_json_honours_artifact_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWFLAKE_ARTIFACT_DIR", str(tmp_path / "art"))
        path = telemetry.export_bench_json("BENCH_env.json")
        assert path.parent == tmp_path / "art"
        assert path.exists()


class TestReport:
    def test_format_stats_renders_tables(self):
        telemetry.count("jit.cache.miss")
        telemetry.record_time("jit.cc", 0.25)
        telemetry.kernel_call("c", 0.5, 500)
        out = telemetry.render_stats()
        assert "kernel invocations" in out
        assert "jit.cc" in out
        assert "jit.cache.miss" in out

    def test_stats_quantiles_are_clamped_to_observed_range(self):
        telemetry.kernel_call("numpy", 3.606e-3, 10)
        row = next(
            line for line in telemetry.render_stats().splitlines()
            if line.startswith("numpy")
        )
        assert row.split()[-3:] == ["0.003606"] * 3  # p50, p95, p99
        assert "0.00375" not in telemetry.render_stats()

    def test_format_stats_empty_registry(self):
        out = telemetry.format_stats(telemetry.snapshot())
        assert "telemetry mode" in out

    def test_dmem_counters_get_their_own_table(self):
        telemetry.count("dmem.transport.retransmits", 3)
        telemetry.count("dmem.restores")
        telemetry.count("jit.cache.miss")
        out = telemetry.render_stats()
        assert "distributed fabric" in out
        # dmem counters appear prefix-stripped in the fabric table and
        # stay out of the generic counter list
        assert "transport.retransmits" in out
        assert "restores" in out
        counters_block = out.split("counters")[-1]
        assert "dmem." not in counters_block
