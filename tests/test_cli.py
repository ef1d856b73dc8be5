"""Unit tests for the command-line interface."""

import pytest

import repro.core.tiling as tiling_mod
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("info", "recognize", "separation", "grover", "comm", "qfa"):
            args = parser.parse_args([cmd])
            assert args.command == cmd


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SPAA 2006" in out and "L_DISJ" in out

    def test_info_lists_backends_and_recognizers(self, capsys):
        """The engine surface is discoverable from the CLI."""
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for backend in ("sequential", "batched"):
            assert backend in out
        for recognizer in ("quantum", "classical-blockwise", "classical-full"):
            assert recognizer in out

    def test_recognize_member(self, capsys):
        assert main(["recognize", "--k", "1", "--kind", "member"]) == 0
        out = capsys.readouterr().out
        assert "quantum" in out and "accepted=True" in out
        assert "in L_DISJ: True" in out

    def test_recognize_intersecting(self, capsys):
        assert main(["recognize", "--k", "1", "--kind", "intersecting", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "in L_DISJ: False" in out

    def test_recognize_malformed_kind(self, capsys):
        assert main(["recognize", "--k", "1", "--kind", "truncated"]) == 0
        out = capsys.readouterr().out
        assert "in L_DISJ: False" in out

    def test_recognize_explicit_word(self, capsys):
        word = "1#" + "1010#0101#1010#" * 2
        assert main(["recognize", "--word", word]) == 0
        out = capsys.readouterr().out
        assert "in L_DISJ: True" in out

    def test_separation(self, capsys):
        assert main(["separation", "--k-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out and "qubits" in out

    def test_grover(self, capsys):
        assert main(["grover", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pr[detect]" in out and "yes" in out

    def test_comm(self, capsys):
        assert main(["comm", "--k-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "BCW" in out

    def test_qfa(self, capsys):
        assert main(["qfa", "--primes", "5", "13"]) == 0
        out = capsys.readouterr().out
        assert "DFA states" in out

    def test_sample_default_quantum(self, capsys):
        assert main(["sample", "--k", "1", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "recognizer=quantum" in out and "trials=50" in out

    def test_sample_classical_recognizers(self, capsys):
        for rec in ("classical-blockwise", "classical-full"):
            assert (
                main(
                    ["sample", "--k", "1", "--trials", "30", "--recognizer", rec]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert f"recognizer={rec}" in out and "accepted=30" in out

    def test_sample_recognizer_counts_backend_independent(self, capsys):
        args = ["sample", "--k", "1", "--kind", "intersecting", "--t", "2",
                "--trials", "60", "--recognizer", "classical-blockwise",
                "--seed", "7"]
        outputs = []
        for backend in ("sequential", "batched"):
            assert main(args + ["--backend", backend]) == 0
            out = capsys.readouterr().out
            outputs.append([l for l in out.splitlines() if "accepted=" in l][0])
        a, b = outputs
        assert a.split("accepted=")[1].split()[0] == b.split("accepted=")[1].split()[0]

    def test_sample_tiled_batched_prints_the_untiled_count(self, capsys, monkeypatch):
        """``batched`` tiles deep runs: a tiled run prints the count of
        the untiled ``sequential`` reference."""
        args = ["sample", "--k", "1", "--kind", "intersecting", "--trials", "80",
                "--seed", "3"]
        assert main(args + ["--backend", "sequential"]) == 0
        want = [l for l in capsys.readouterr().out.splitlines() if "accepted=" in l]
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 16)
        assert main(args + ["--backend", "batched"]) == 0
        got = [l for l in capsys.readouterr().out.splitlines() if "accepted=" in l]
        assert [l.split("accepted=")[1] for l in got] == [
            l.split("accepted=")[1] for l in want
        ]

    def test_sample_unknown_backend_lists_registered(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sample", "--k", "1", "--backend", "tpu"])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown backend 'tpu'; available: batched, sequential" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["sample", "--k", "1", "--kind", "intersecting", "--trials", "80"],
            ["lab", "run", "--k", "1", "--trials", "10", "--store"],
            ["query", "--port", "1", "--k", "1", "--trials", "10"],
        ],
        ids=["sample", "lab-run", "query"],
    )
    @pytest.mark.parametrize("name", ["multiprocess", "sharedmem", "gpu"])
    def test_retired_backend_exits_2(self, command, name, tmp_path, capsys):
        """Names older builds ran as ``batched`` fail at argument parsing:
        nothing runs, nothing is stored, no server is contacted."""
        store = tmp_path / "store"
        argv = command + [str(store)] * (command[-1] == "--store")
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--backend", name])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unknown backend '{name}'" in err
        assert not store.exists()

    def test_sample_reports_uncertainty(self, capsys):
        assert main(["sample", "--k", "1", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "stderr = " in out and "Wilson 95% CI [" in out


#: Word options that name no word, and the message word generation gives.
BAD_WORD_OPTIONS = [
    (["--k", "0"], "k must be >= 1"),
    (["--kind", "intersecting", "--t", "99"], "t must lie in [0, 16]"),
    (["--kind", "bogus"], "bogus"),
]


class TestBadWordOptions:
    """A word the options cannot name is a usage error: one
    ``<cmd>: <message>`` line on stderr and exit 2, no traceback."""

    @pytest.mark.parametrize("options, message", BAD_WORD_OPTIONS)
    @pytest.mark.parametrize(
        "name, args",
        [
            ("sample", ["sample", "--trials", "10"]),
            ("recognize", ["recognize"]),
            ("lab run", ["lab", "run", "--trials", "10", "--store"]),
        ],
    )
    def test_exits_2_with_one_line(
        self, name, args, options, message, tmp_path, capsys
    ):
        if args[-1] == "--store":
            args = args + [str(tmp_path / "store")]
        assert main(args + options) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{name}: ")
        assert message in captured.err and len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "store").exists()


class TestLabCommands:
    def _run(self, tmp_path, *extra):
        return main(
            ["lab", "run", "--k", "1", "--kind", "intersecting", "--t", "2",
             "--trials", "40", "--store", str(tmp_path / "store"), *extra]
        )

    def test_run_fresh_then_pure_cache_hit(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        first = capsys.readouterr().out
        assert "source=fresh" in first and "trials_executed=40" in first
        assert "Wilson 95% CI [" in first
        assert self._run(tmp_path) == 0
        second = capsys.readouterr().out
        assert "source=cache" in second and "trials_executed=0" in second

    def test_run_deepens_cached_result(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert (
            main(
                ["lab", "run", "--k", "1", "--kind", "intersecting", "--t", "2",
                 "--trials", "100", "--store", str(tmp_path / "store")]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "source=deepened" in out
        assert "trials_executed=60" in out and "base_trials=40" in out
        assert "trials=100" in out

    def test_status_and_report(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert main(["lab", "status", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "experiments: 1" in out and "checkpoints: 1" in out
        assert main(["lab", "report", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "intersecting(k=1,t=2)" in out and "Wilson 95%" in out

    def test_compact_then_status_serves_from_index(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert main(["lab", "compact", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "evicted keys: 0" in out and "shards: 1 (1 indexed)" in out
        assert main(["lab", "status", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "experiments: 1" in out and "source: index" in out

    def test_compact_rejects_bad_policy_arguments(self, tmp_path, capsys):
        assert main(
            ["lab", "compact", "--store", str(tmp_path / "store"),
             "--ttl-seconds", "-1"]
        ) == 2
        assert "ttl-seconds" in capsys.readouterr().err
        assert main(
            ["lab", "compact", "--store", str(tmp_path / "store"),
             "--max-keys", "-2"]
        ) == 2
        assert "max-keys" in capsys.readouterr().err

    def test_status_and_report_scan_counts(self, tmp_path, capsys, monkeypatch):
        # The scan-regression gate: status on a compacted store reads
        # pure index (zero file scans); report does exactly one pass
        # over each data file, never one per key.
        from repro.lab import ResultStore

        assert self._run(tmp_path) == 0
        assert main(["lab", "compact", "--store", str(tmp_path / "store")]) == 0
        capsys.readouterr()
        calls = []
        original = ResultStore._scan_file

        def counting(self, path):
            calls.append(path)
            return original(self, path)

        monkeypatch.setattr(ResultStore, "_scan_file", counting)
        assert main(["lab", "status", "--store", str(tmp_path / "store")]) == 0
        assert calls == []
        assert main(["lab", "report", "--store", str(tmp_path / "store")]) == 0
        assert len(calls) == len(set(calls)) == 1  # one pass per data file

    def _flat_store(self, tmp_path):
        from repro.lab.store import LabRecord

        root = tmp_path / "flat"
        root.mkdir()
        record = LabRecord(
            key="flat-key", spec={"recognizer": "quantum"}, trials=100,
            accepted=42, backend="batched",
        )
        (root / "results.jsonl").write_text(record.to_line(), encoding="utf-8")
        return root

    def test_unmigrated_flat_store_is_refused(self, tmp_path, capsys):
        # A pre-shard layout (flat results.jsonl) is never read or
        # written around: every command but compact refuses it.
        root = self._flat_store(tmp_path)
        for argv in (
            ["lab", "status", "--store", str(root)],
            ["lab", "report", "--store", str(root)],
            ["lab", "run", "--k", "1", "--trials", "20", "--store", str(root)],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "repro lab compact" in captured.err and captured.out == ""
        assert sorted(p.name for p in root.iterdir()) == ["results.jsonl"]

    def test_compact_migrates_flat_store(self, tmp_path, capsys):
        root = self._flat_store(tmp_path)
        assert main(["lab", "compact", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "migrated 1 record(s)" in out and "experiments: 1" in out
        assert not (root / "results.jsonl").exists()
        assert main(["lab", "status", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "experiments: 1" in out and "source: index" in out
        assert main(["lab", "report", "--store", str(root)]) == 0
        assert "100" in capsys.readouterr().out

    def test_run_rejects_bad_arguments_gracefully(self, tmp_path, capsys):
        assert (
            main(
                ["lab", "run", "--k", "1", "--trials", "0",
                 "--store", str(tmp_path / "store")]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "lab run:" in err and "trials" in err

    def test_lab_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lab"])

    def test_store_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LAB_STORE", str(tmp_path / "envstore"))
        args = build_parser().parse_args(["lab", "status"])
        assert args.store == str(tmp_path / "envstore")


class TestTraceFlag:
    def test_sample_trace_writes_parseable_span_tree(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            ["sample", "--k", "1", "--trials", "30", "--trace", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "Pr[accept]" in captured.out
        assert "trace:" in captured.err and str(path) in captured.err
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, events = lines[0], lines[1:]
        assert header["kind"] == "trace" and header["v"] == 1
        assert header["spans"] == len(events) >= 2
        names = {event["name"] for event in events}
        assert {"engine.run", "engine.backend.count"} <= names
        ids = {event["id"] for event in events}
        assert all(
            event["parent"] is None or event["parent"] in ids
            for event in events
        ), "dangling parent link"

    def test_lab_run_trace(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            ["lab", "run", "--k", "1", "--trials", "20",
             "--store", str(tmp_path / "store"), "--trace", str(path)]
        ) == 0
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ][1:]
        names = {event["name"] for event in events}
        assert {"lab.run", "lab.store.scan", "lab.store.append"} <= names

    def test_trace_never_changes_counts(self, tmp_path, capsys):
        args = ["sample", "--k", "1", "--trials", "40", "--seed", "9"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        pick = lambda out: [l for l in out.splitlines() if "accepted=" in l]
        assert pick(plain) == pick(traced)


class TestMetricsCommand:
    def test_parser_knows_metrics(self):
        args = build_parser().parse_args(["metrics", "--json"])
        assert args.command == "metrics" and args.json

    def test_metrics_json_against_live_service(self, tmp_path, capsys):
        import json

        from repro.obs import get_registry
        from repro.service import ServiceClient, ServiceThread

        get_registry().reset()
        with ServiceThread(tmp_path / "store", workers=1) as svc:
            with ServiceClient(port=svc.port) as client:
                client.query(family="member", k=1, trials=30, seed=2)
            assert main(["metrics", "--port", str(svc.port), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["version"] == 1
            assert doc["counters"]["service.engine_runs"] == 1
            assert main(["metrics", "--port", str(svc.port)]) == 0
            human = capsys.readouterr().out
            assert "telemetry snapshot v1" in human
            assert "Counters" in human and "Histograms" in human
        get_registry().reset()

    def test_metrics_unreachable_service_fails_cleanly(self, capsys):
        assert main(["metrics", "--port", "1", "--timeout", "0.5"]) == 1
        assert "cannot reach service" in capsys.readouterr().err
