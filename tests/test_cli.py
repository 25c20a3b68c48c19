"""Tests for the command-line interface (repro.cli)."""

import json
from collections import OrderedDict

import pytest

from repro.cli import build_parser, main
from repro.core import campaign as campaign_mod
from repro.nmcsim.memostore import configure_store
from repro.obs.trace import HW_PID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["workloads"],
            ["profile", "atax"],
            ["simulate", "atax"],
            ["campaign", "atax"],
            ["train", "atax", "-o", "x.pkl"],
            ["predict", "atax", "-m", "x.pkl"],
            ["schema"],
            ["suitability", "atax", "mvt"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["campaign", "atax", "--engine", "fast"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestWorkloadsCommand:
    def test_lists_all_twelve(self, capsys):
        code, out, _ = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("atax", "bfs", "kme", "trmm"):
            assert name in out


class TestProfileCommand:
    def test_profiles_central_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "atax", "--scale", "4", "--top", "5"
        )
        assert code == 0
        assert "instructions" in out
        assert "profile features" in out

    def test_custom_param(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "atax", "--scale", "4",
            "-p", "dimensions=600", "-p", "threads=4",
        )
        assert code == 0
        assert "dimensions" in out

    def test_bad_param_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "atax", "-p", "dimensions"
        )
        assert code == 2
        assert "NAME=VALUE" in err

    def test_unknown_workload(self, capsys):
        code, _, err = run_cli(capsys, "profile", "nope")
        assert code == 2
        assert "unknown workload" in err


class TestSimulateCommand:
    def test_simulates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "mvt", "--scale", "4")
        assert code == 0
        assert "IPC" in out and "energy" in out

    def test_arch_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "mvt", "--scale", "4",
            "--pes", "8", "--freq", "2.0", "--l1-lines", "16",
        )
        assert code == 0
        assert "8 PEs @ 2.0 GHz" in out

    def test_hw_traced_run_prints_identical_results(self, capsys, tmp_path):
        # --trace-hw takes the per-access path (one timeline event per
        # access); every printed figure but the wall-clock must match.
        def figures(out):
            return [ln for ln in out.splitlines() if "wall-clock" not in ln]

        code, plain, _ = run_cli(capsys, "simulate", "atax", "--scale", "8")
        assert code == 0
        trace_path = tmp_path / "hw.json"
        code, traced, _ = run_cli(
            capsys, "simulate", "atax", "--scale", "8",
            "--trace-hw", "--trace", str(trace_path),
        )
        assert code == 0
        assert figures(traced) == figures(plain)
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(
            e.get("pid") == HW_PID and e["ph"] != "M" for e in events
        )


class TestTrainPredictRoundtrip:
    def test_train_then_predict(self, capsys, tmp_path):
        model_path = tmp_path / "m.pkl"
        cache_path = tmp_path / "cache.json"
        code, out, _ = run_cli(
            capsys, "train", "atax", "-o", str(model_path),
            "--cache", str(cache_path), "--scale", "4",
            "--trees", "10", "--no-tune",
        )
        assert code == 0
        assert model_path.exists()
        assert cache_path.exists()

        code, out, _ = run_cli(
            capsys, "predict", "atax", "-m", str(model_path), "--scale", "4",
        )
        assert code == 0
        assert "IPC (aggregate)" in out

    def test_predict_splits_load_and_predict_timing(
        self, capsys, tmp_path
    ):
        """`repro predict` reports model-load, profiling and prediction
        wall-clock separately (table and manifest): load cost must not
        be booked as prediction time, or CLI-vs-served latency
        comparisons are meaningless."""
        model_path = tmp_path / "m.pkl"
        code, _, _ = run_cli(
            capsys, "train", "atax", "-o", str(model_path),
            "--scale", "4", "--trees", "10", "--no-tune",
        )
        assert code == 0
        manifest = tmp_path / "predict.json"
        code, out, _ = run_cli(
            capsys, "predict", "atax", "-m", str(model_path),
            "--scale", "4", "--manifest", str(manifest),
        )
        assert code == 0
        assert "model load wall-clock" in out
        assert "prediction wall-clock" in out
        timing = json.loads(manifest.read_text())["timing"]
        assert set(timing) == {
            "load_seconds", "profile_seconds", "predict_seconds"
        }
        assert all(v >= 0 for v in timing.values())

    def test_predict_missing_model(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "predict", "atax", "-m", str(tmp_path / "none.pkl"),
        )
        assert code == 2
        assert "no model file" in err


class TestSchemaCommand:
    def test_block_table(self, capsys):
        from repro.schema import active_schema

        code, out, _ = run_cli(capsys, "schema")
        assert code == 0
        for block in ("profile", "app", "arch", "prior"):
            assert block in out
        assert active_schema().content_hash[:16] in out

    def test_names_are_indexed(self, capsys):
        code, out, _ = run_cli(capsys, "schema", "--names")
        assert code == 0
        lines = out.strip().splitlines()
        from repro.schema import active_schema

        assert len(lines) == len(active_schema())
        assert lines[0].split() == ["0", active_schema().names[0]]

    def test_json_dump_matches_schema(self, capsys):
        import json

        from repro.schema import active_schema

        code, out, _ = run_cli(capsys, "schema", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == active_schema().to_json_dict()

    def test_diff_against_saved_model(self, capsys, tmp_path):
        from repro import NapelTrainer, SimulationCampaign, get_workload
        from repro.core import save_model

        campaign = SimulationCampaign(scale=4.0)
        training = campaign.run(get_workload("atax"))
        trained = NapelTrainer(n_estimators=10, tune=False).train(training)
        path = tmp_path / "m.pkl"
        save_model(trained.model, path)
        code, out, _ = run_cli(capsys, "schema", "--diff", str(path))
        assert code == 0
        assert "schemas are identical" in out


class TestCampaignCommand:
    def test_runs_ccd(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "campaign", "atax", "--scale", "4",
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert "11 configurations" in out


class TestSuitabilityCommand:
    def test_needs_two_apps(self, capsys):
        code, _, err = run_cli(capsys, "suitability", "atax")
        assert code == 2
        assert "at least two" in err


class TestMemoDirFlag:
    """``--memo-dir`` reaches every campaign a command builds."""

    @pytest.fixture(autouse=True)
    def _fresh_state(self, monkeypatch):
        # Fresh traces: ones memoized by earlier tests carry their
        # phase-A products and would never consult the store.
        monkeypatch.setattr(campaign_mod, "_TRACE_MEMO", OrderedDict())
        configure_store(None)
        yield
        configure_store(None)

    def test_train_fills_memo_dir(self, capsys, tmp_path):
        memo = tmp_path / "memo"
        code, _, _ = run_cli(
            capsys, "train", "atax", "--scale", "8", "--trees", "5",
            "--no-tune", "--memo-dir", str(memo),
            "-o", str(tmp_path / "m.pkl"),
            "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert memo.is_dir() and any(memo.iterdir())

    def test_multi_backend_suitability_fills_memo_dir(
        self, capsys, tmp_path
    ):
        memo = tmp_path / "memo"
        code, _, _ = run_cli(
            capsys, "suitability", "atax", "mvt", "--scale", "8",
            "--backend", "hmc", "--backend", "hbm2",
            "--memo-dir", str(memo), "--cache", str(tmp_path / "c.json"),
        )
        assert code == 0
        assert memo.is_dir() and any(memo.iterdir())
