"""Unit tests for the command-line front end."""

import json

import pytest

from repro.cli import main


class TestAnalyze:
    def test_analyze_heyzap_vulnerable_exit_code(self, capsys):
        code = main(["analyze", "heyzap", "--rules", "ssl-verifier"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VULNERABLE" in out

    def test_analyze_palcomp3_open_port(self, capsys):
        code = main(["analyze", "palcomp3", "--rules", "open-port", "--dump-ssg"])
        out = capsys.readouterr().out
        assert "8089" in out
        assert "static track" in out

    def test_analyze_with_hierarchy_fix_flag(self, capsys):
        code = main(["analyze", "lgtv", "--hierarchy-fix"])
        assert code == 0  # no crypto/ssl findings in the LG miniature

    def test_unknown_app_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", "nonexistent"])

    def test_malformed_bench_spec_friendly_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "bench:abc"])
        assert "bench:abc" in str(exc_info.value)
        assert "non-negative integer" in str(exc_info.value)

    def test_negative_bench_spec_friendly_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "bench:-3"])
        assert "must be >= 0" in str(exc_info.value)

    def test_analyze_json_emits_versioned_envelope(self, capsys):
        import json

        from repro.api import SCHEMA_VERSION, ReportEnvelope

        code = main(["analyze", "heyzap", "--rules", "ssl-verifier", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1  # exit code still reflects the verdict
        assert payload["kind"] == "backdroid-report"
        assert payload["schema_version"] == SCHEMA_VERSION
        envelope = ReportEnvelope.from_dict(payload)
        assert envelope.package == "com.heyzap.demo"
        assert envelope.vulnerable
        assert envelope.request.rules == ("ssl-verifier",)

    def test_analyze_trace_covers_app_generation(self, capsys):
        code = main(["analyze", "bench:3", "--rules", "open-port",
                     "--backend", "indexed", "--json", "--trace"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        spans = payload["trace"]["spans"]
        by_name = {span["name"]: span for span in spans}
        root = by_name["analyze"]
        generate = by_name["app.generate"]
        assert generate["parent_id"] == root["span_id"]
        assert generate["attrs"]["package"] == payload["report"]["package"]
        assert {span["trace_id"] for span in spans} == {root["trace_id"]}
        # The render and the fold come after generation, in one tree.
        assert by_name["disassemble"]["started_at"] >= generate["started_at"]
        assert "index.fold" in by_name

    def test_analyze_with_a_store_restores_the_disassembly(
        self, tmp_path, capsys
    ):
        argv = ["analyze", "bench:0", "--backend", "indexed", "--json"]
        store = ["--store", str(tmp_path / "s")]

        def findings(*extra):
            main(argv + list(extra))
            payload = json.loads(capsys.readouterr().out)
            return payload, [r["finding"] for r in payload["report"]["records"]]

        _, storeless = findings()
        assert any(storeless)
        findings(*store)
        warm, restored = findings(*store, "--trace")
        assert [
            span["attrs"] for span in warm["trace"]["spans"]
            if span["name"] == "disassemble"
        ] == [{"via": "store", "hit": True}]
        assert restored == storeless

    def test_analyze_with_indexed_backend(self, capsys):
        code = main(["analyze", "heyzap", "--rules", "ssl-verifier",
                     "--backend", "indexed"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VULNERABLE" in out
        assert "search backend : indexed" in out


class TestOtherCommands:
    def test_compare(self, capsys):
        code = main(["compare", "heyzap", "--timeout", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "BackDroid" in out and "whole-app" in out

    def test_corpus(self, capsys):
        code = main(["corpus", "--year", "2016", "--count", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "year 2016" in out

    def test_inventory_bench_app(self, capsys):
        code = main(["inventory", "bench:0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "com.bench.app000" in out
        assert "components:" in out


class TestBatch:
    def test_batch_range_of_bench_apps(self, capsys):
        code = main(["batch", "bench:0..3", "--scale", "0.05",
                     "--backend", "indexed", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "com.bench.app000" in out and "com.bench.app002" in out
        assert "backend=indexed" in out
        assert "wall time" in out and "cache rates" in out and "findings" in out

    def test_batch_year_sample(self, capsys):
        code = main(["batch", "--year", "2015", "--count", "2",
                     "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "com.corpus.y2015.app00000" in out

    def test_batch_twenty_apps_one_invocation(self, capsys):
        code = main(["batch", "bench:0..20", "--scale", "0.02",
                     "--backend", "indexed"])
        out = capsys.readouterr().out
        assert code == 0
        assert "20 apps" in out
        assert out.count("com.bench.app") >= 20

    def test_batch_requires_some_apps(self):
        with pytest.raises(SystemExit, match="nothing to analyze"):
            main(["batch"])

    def test_batch_malformed_range(self):
        with pytest.raises(SystemExit, match="range bounds"):
            main(["batch", "bench:1..x"])
        with pytest.raises(SystemExit, match="start < end"):
            main(["batch", "bench:5..5"])

    def test_batch_rejects_bad_workers_and_cache_max(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["batch", "bench:0..2", "--workers", "0"])
        with pytest.raises(SystemExit, match="--cache-max"):
            main(["batch", "bench:0..2", "--cache-max", "0"])


class TestStore:
    def _batch(self, tmp_path, capsys):
        code = main(["batch", "bench:0..3", "--scale", "0.05",
                     "--backend", "indexed", "--executor", "serial",
                     "--store", str(tmp_path / "s"), "--store-mode", "full"])
        assert code == 0
        return capsys.readouterr().out

    def test_second_batch_run_is_warm(self, tmp_path, capsys):
        cold = self._batch(tmp_path, capsys)
        assert "0 hit(s) / 3 miss(es)" in cold
        warm = self._batch(tmp_path, capsys)
        assert "3 hit(s) / 0 miss(es) (100% warm)" in warm
        assert "[warm]" in warm

    def test_warm_then_stats_then_gc(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        code = main(["store", "warm", "bench:0..2", "--scale", "0.05",
                     "--store", store_dir])
        assert code == 0
        assert "warmed 2/2" in capsys.readouterr().out

        code = main(["store", "stats", "--store", store_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries     : 2" in out and "manifest" in out
        assert "shard" in out and "dedup ratio" in out

        code = main(["store", "gc", "--store", store_dir])
        assert code == 0
        assert "removed 2" in capsys.readouterr().out

        code = main(["store", "stats", "--store", store_dir])
        assert code == 0
        assert "entries     : 0" in capsys.readouterr().out

    def test_warmed_store_restores_indexes_in_batch(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        main(["store", "warm", "bench:0..3", "--scale", "0.05",
              "--store", store_dir])
        capsys.readouterr()
        code = main(["batch", "bench:0..3", "--scale", "0.05",
                     "--backend", "indexed", "--executor", "serial",
                     "--store", store_dir])
        assert code == 0
        assert "3 restored index(es)" in capsys.readouterr().out

    def test_store_actions_require_store_dir(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["store", "stats"])
        with pytest.raises(SystemExit, match="--store"):
            main(["store", "warm", "bench:0..2"])
        with pytest.raises(SystemExit, match="--store"):
            main(["store", "gc"])


class TestJsonOutput:
    def test_batch_json_is_machine_readable(self, capsys):
        import json

        code = main(["batch", "bench:0..3", "--scale", "0.05",
                     "--backend", "indexed", "--executor", "serial",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["apps"]) == 3
        assert payload["apps"][0]["package"] == "com.bench.app000"
        aggregate = payload["aggregate"]
        assert aggregate["app_count"] == 3 and aggregate["failed"] == 0
        assert aggregate["backend"] == "indexed"
        assert "store" not in aggregate  # no store configured

    def test_batch_json_reports_store_and_lanes(self, tmp_path, capsys):
        import json

        argv = ["batch", "bench:0..3", "--scale", "0.05",
                "--backend", "indexed", "--executor", "serial",
                "--store", str(tmp_path / "s"), "--store-mode", "full",
                "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)["aggregate"]["store"]
        assert cold["hits"] == 0 and cold["fast_lane_apps"] == 0

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)["aggregate"]["store"]
        assert warm["hits"] == 3
        assert warm["fast_lane_apps"] == 3 and warm["main_lane_apps"] == 0

    def test_store_stats_json(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "s")
        main(["store", "warm", "bench:0..2", "--scale", "0.05",
              "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "stats", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["files_by_kind"]["manifest"] == 2
        assert payload["shards"] >= 2
        assert payload["shard_refs"] >= payload["shards"]
        assert payload["dedup_ratio"] >= 1.0


class TestStoreVerify:
    def test_verify_clean_store_exits_zero(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        main(["store", "warm", "bench:0..3", "--scale", "0.05",
              "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "verified 3 stored index(es), 0 failure(s)" in out

    def test_verify_flags_corruption_nonzero_exit(self, tmp_path, capsys):
        from repro.store import ArtifactStore
        from repro.store.binshard import decode_shard, encode_shard

        store_dir = str(tmp_path / "s")
        main(["store", "warm", "bench:0..2", "--scale", "0.05",
              "--store", store_dir])
        capsys.readouterr()
        store = ArtifactStore(store_dir)
        shard_path = next(store._shard_files())
        payload = decode_shard(shard_path.read_bytes())
        payload["postings"][0] = [n + 1 for n in payload["postings"][0]]
        shard_path.write_bytes(encode_shard(payload, payload["key"]))

        assert main(["store", "verify", "--store", store_dir]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "1 failure(s)" in out

    def test_warm_republishes_entries_of_a_retired_format(
        self, tmp_path, capsys
    ):
        # There is no migrator: entries of another format version are
        # skipped by verify and rebuilt current by the next warm.
        from repro.store import ArtifactStore

        store_dir = str(tmp_path / "s")
        warm = ["store", "warm", "bench:0..2", "--scale", "0.05",
                "--store", store_dir]
        assert main(warm) == 0
        for entry in ArtifactStore(store_dir).entries():
            path = entry / "manifest.json"
            payload = json.loads(path.read_text())
            payload["version"] = 2
            path.write_text(json.dumps(payload))
        capsys.readouterr()

        assert main(["store", "verify", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("SKIP") == 2
        assert "verified 0 stored index(es), 0 failure(s)" in out

        assert main(warm) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "verified 2 stored index(es), 0 failure(s)" in out

    def test_verify_requires_store_dir(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["store", "verify"])


class TestBatchLanes:
    def test_warm_batch_renders_lane_counts(self, tmp_path, capsys):
        argv = ["batch", "bench:0..4", "--scale", "0.05",
                "--backend", "indexed", "--executor", "serial",
                "--store", str(tmp_path / "s"), "--store-mode", "full"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "lanes          : 0 fast / 4 main" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "lanes          : 4 fast / 0 main" in warm
        # Rendered rows stay in input order regardless of dispatch order.
        rows = [line.split()[0] for line in warm.splitlines()
                if line.startswith("com.bench.app")]
        assert rows == sorted(rows)


class TestServe:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8099
        assert args.workers == 4 and args.fast_lane_workers == 1
        assert args.func.__name__ == "cmd_serve"

    def test_build_server_wires_scheduler_and_store(self, tmp_path):
        from repro.cli import build_parser, build_server

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", str(tmp_path / "s"),
             "--backend", "indexed", "--workers", "2",
             "--fast-lane-workers", "1"]
        )
        server = build_server(args)
        try:
            host, port = server.address
            assert host == "127.0.0.1" and port > 0
            assert server.scheduler.config.store_dir == str(tmp_path / "s")
            assert server.scheduler.config.search_backend == "indexed"
            assert server.scheduler.lanes["main"].workers == 2
            assert server.scheduler.lanes["fast"].workers == 1
        finally:
            server.shutdown(drain=True)

    def test_build_server_rejects_bad_worker_counts(self, tmp_path):
        from repro.cli import build_parser, build_server

        args = build_parser().parse_args(["serve", "--workers", "0"])
        with pytest.raises(SystemExit, match="--workers"):
            build_server(args)
        args = build_parser().parse_args(["serve", "--fast-lane-workers", "-1"])
        with pytest.raises(SystemExit, match="--fast-lane-workers"):
            build_server(args)
        args = build_parser().parse_args(["serve", "--retain-jobs", "0"])
        with pytest.raises(SystemExit, match="--retain-jobs"):
            build_server(args)
