"""Tests for the fv command-line tool."""

import json
from pathlib import Path

import pytest

from repro.cli import main

POLICY = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit
fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2 borrow 1:20
fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.fv"
    path.write_text(POLICY)
    return str(path)


class TestCheck:
    def test_valid_policy_ok(self, policy_file, capsys):
        assert main(["check", policy_file, "--link", "10mbit"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "3 classes" in out

    def test_invalid_policy_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.fv"
        path.write_text(POLICY + "fv filter add dev eth0 parent 1: match app=X flowid 9:9\n")
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["check", "/nonexistent/policy.fv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.fv"
        path.write_text("fv qdisc add dev eth0 root frobnicate\n")
        assert main(["check", str(path)]) == 1


class TestShow:
    def test_prints_tree(self, policy_file, capsys):
        assert main(["show", policy_file, "--link", "10mbit"]) == 0
        out = capsys.readouterr().out
        assert "1:10" in out and "1:20" in out
        assert "θ=" in out


class TestSimulate:
    def test_enforces_weighted_split(self, policy_file, capsys):
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--app", "B=20mbit",
            "--duration", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "A" in out and "B" in out and "total" in out

    def test_requires_an_app(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file])
        assert "--app" in str(excinfo.value)

    def test_rejects_malformed_app_spec(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file, "--app", "nonsense"])
        assert "NAME=RATE" in str(excinfo.value)
        assert "'nonsense'" in str(excinfo.value)

    def test_rejects_duplicate_app_names(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", policy_file,
                "--app", "A=2mbit", "--app", "A=4mbit",
            ])
        assert "duplicate app name 'A'" in str(excinfo.value)

    def test_rejects_bad_rate_suffix(self, policy_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", policy_file, "--app", "A=5zbit"])
        message = str(excinfo.value)
        assert "bad rate for app 'A'" in message
        assert "zbit" in message

    def test_nic_mode_with_trace_and_metrics(self, tmp_path, capsys):
        # The DES pipeline wants a policy whose rates justify scaling.
        policy = tmp_path / "policy.fv"
        policy.write_text(POLICY.replace("10mbit", "10gbit"))
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main([
            "simulate", str(policy), "--link", "10gbit",
            "--app", "A=9gbit", "--app", "B=9gbit",
            "--duration", "5", "--scale", "500",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert rows, "trace JSONL must not be empty"
        kinds = {(row["source"], row["kind"]) for row in rows}
        assert ("nic.pipeline", "drop") in kinds
        assert ("core.sched", "rate_update") in kinds
        assert ("nic.tm", "queue_depth") in kinds
        snapshots = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert snapshots and snapshots[-1]["nic.submitted"] > 0
        assert snapshots[-1]["time"] == pytest.approx(5.0)

    def test_metrics_keep_the_fluid_engine(self, tmp_path, capsys):
        # --metrics alone runs the fluid engine; its rows are byte-equal
        # to a traced run's, which forces the per-packet engine.
        policy = tmp_path / "policy.fv"
        policy.write_text(POLICY.replace("10mbit", "10gbit"))
        outs = {}
        for name, extra in (("fluid", []), ("traced", ["--trace", str(tmp_path / "t.jsonl")])):
            code = main([
                "simulate", str(policy), "--link", "10gbit",
                "--app", "A=9gbit", "--app", "B=9gbit",
                "--duration", "5", "--scale", "500",
                "--metrics", str(tmp_path / f"{name}.jsonl"), *extra,
            ])
            assert code == 0
            outs[name] = capsys.readouterr().out
        assert "engine: fluid (absorbed=" in outs["fluid"]
        assert "engine: per-packet (no fluid lane: tracer on)" in outs["traced"]
        fluid = (tmp_path / "fluid.jsonl").read_bytes()
        assert fluid.count(b"\n") >= 100
        assert fluid == (tmp_path / "traced.jsonl").read_bytes()

    def test_trace_implies_nic_mode(self, tmp_path, capsys):
        policy = tmp_path / "policy.fv"
        policy.write_text(POLICY.replace("10mbit", "10gbit"))
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "simulate", str(policy), "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "2", "--scale", "1000",
            "--trace", str(trace_path), "--trace-limit", "50",
        ])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 50  # --trace-limit keeps the newest N

    def test_nic_mode_rejects_bad_scale(self, policy_file, capsys):
        code = main([
            "simulate", policy_file, "--nic", "--app", "A=20mbit",
            "--scale", "0",
        ])
        assert code == 1
        assert "scale" in capsys.readouterr().err

    def test_achieved_rates_respect_policy(self, policy_file, capsys):
        main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--app", "B=20mbit",
            "--duration", "20",
        ])
        out = capsys.readouterr().out
        # Parse the achieved column for app A: ~6.5 Mbit (2/3 of 9.7).
        for line in out.splitlines():
            if line.strip().startswith("A:"):
                achieved = line.split("achieved")[1].strip()
                value = float(achieved.replace("Mbit", ""))
                assert 5.5 < value < 7.5
                break
        else:
            pytest.fail(f"no per-app line in output:\n{out}")


class TestSimulateScheduler:
    """fv simulate --scheduler NAME: the crossbar DES runtime."""

    @pytest.fixture
    def policy_10g(self, tmp_path):
        path = tmp_path / "policy.fv"
        path.write_text(POLICY.replace("10mbit", "10gbit"))
        return str(path)

    def test_crossbar_scheduler_runs(self, policy_10g, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--app", "B=9gbit",
            "--duration", "2", "--scale", "500",
            "--scheduler", "wfq", "--backend", "eiffel",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler=wfq" in out and "backend=eiffel" in out
        assert "port[wfq[eiffel]]" in out
        assert "total" in out

    def test_default_scheduler_path_unchanged(self, policy_file, capsys):
        # --scheduler flowvalve is the default route: identical output
        # shape to a plain `fv simulate`.
        code = main([
            "simulate", policy_file, "--link", "10mbit",
            "--app", "A=20mbit", "--duration", "5",
            "--scheduler", "flowvalve",
        ])
        assert code == 0
        assert "achieved" in capsys.readouterr().out

    def test_scheduler_excludes_trace(self, policy_10g, tmp_path, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "2", "--scale", "500",
            "--scheduler", "wfq", "--trace", str(tmp_path / "t.jsonl"),
        ])
        assert code == 1
        assert "flowvalve" in capsys.readouterr().err

    def test_unknown_scheduler_reported(self, policy_10g, capsys):
        code = main([
            "simulate", policy_10g, "--link", "10gbit",
            "--app", "A=9gbit", "--duration", "1", "--scale", "500",
            "--scheduler", "cake",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "cake" in err and "registered" in err


class TestSimulateWorkload:
    """fv simulate --workload PRESET: batched heavy-tailed trace demand."""

    ARGS = [
        str(Path(__file__).resolve().parent.parent / "examples" / "motivation.fv"),
        "--link", "10gbit", "--workload", "kvs",
        "--app", "KVS=2gbit", "--app", "WS=1gbit",
        "--duration", "2", "--scale", "200",
    ]

    def test_metrics_rows_on_the_fluid_engine(self, tmp_path, capsys):
        paths, outs = {}, {}
        for name, extra in (("fluid", []), ("no-fluid", ["--no-fluid"])):
            paths[name] = tmp_path / f"{name}.jsonl"
            code = main(["simulate", *self.ARGS, "--metrics", str(paths[name]), *extra])
            assert code == 0
            outs[name] = capsys.readouterr().out
            assert f"metrics: 100 snapshots -> {paths[name]}" in outs[name]
        assert "engine: fluid (absorbed=" in outs["fluid"]
        assert "engine: fast (no fluid lane: fluid off)" in outs["no-fluid"]
        fluid_rows = [json.loads(line) for line in paths["fluid"].read_text().splitlines()]
        assert fluid_rows[-1]["time"] == pytest.approx(2.0)
        assert fluid_rows[-1]["nic.submitted"] > 0
        assert fluid_rows == [
            json.loads(line) for line in paths["no-fluid"].read_text().splitlines()
        ]

    def test_rejects_trace(self, tmp_path, capsys):
        code = main(["simulate", *self.ARGS, "--trace", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "--trace is not supported with --workload" in capsys.readouterr().err
