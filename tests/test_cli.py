import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ora_bob as ob
from ora_bob import cli, serialization
from ora_bob.traceio import read_trace_csv


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cli_run_args(out_dir, seeds="7", T="120", name="exp", extra=()):
    return [
        "run",
        "--generator",
        "example1_general",
        "--param",
        "T=120",
        "--T",
        T,
        "--seeds",
        seeds,
        "--out",
        str(out_dir),
        "--name",
        name,
        *extra,
    ]


class TestRun:
    def test_produces_trace_and_summary(self, tmp_path, capsys):
        code, out = run_cli(capsys, *cli_run_args(tmp_path))
        assert code == 0
        assert (tmp_path / "exp_7.csv").exists()
        assert (tmp_path / "exp_7.json").exists()
        payload = json.loads((tmp_path / "exp_7.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["summary"]["total_reward"] >= 0.0
        header, cols = read_trace_csv(tmp_path / "exp_7.csv")
        assert header["instance_hash"] == payload["instance_hash"]
        assert len(cols["t"]) == 120

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, *cli_run_args(a))
        run_cli(capsys, *cli_run_args(b))
        assert (a / "exp_7.csv").read_bytes() == (b / "exp_7.csv").read_bytes()
        assert (a / "exp_7.json").read_bytes() == (b / "exp_7.json").read_bytes()

    def test_missing_instance_file_exits_2_with_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        code, out = run_cli(
            capsys, "run", "--instance", missing, "--seeds", "1", "--out", str(tmp_path)
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["path"] == missing

    def test_zero_eta_rejected_before_running(self, tmp_path, capsys):
        code, out = run_cli(capsys, *cli_run_args(tmp_path, extra=("--eta", "0")))
        assert code == 2
        assert "eta" in json.loads(out)["error"]["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_adversarial_instance_from_file(self, tmp_path, capsys):
        inst = ob.random_instance(5, T=40, K=3, m=1, n=1, feasibility_margin=0.2)
        path = tmp_path / "inst.json"
        ob.save_instance(inst, path)
        code, _ = run_cli(
            capsys,
            "run",
            "--instance",
            str(path),
            "--seeds",
            "0",
            "--out",
            str(tmp_path),
            "--name",
            "adv",
            "--benchmark",
            "lp",
        )
        assert code == 0
        payload = json.loads((tmp_path / "adv_0.json").read_text())
        assert payload["summary"]["regret"] is not None
        assert payload["rho_adv"] >= 0.2

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        a, b = tmp_path / "serial", tmp_path / "par"
        run_cli(capsys, *cli_run_args(a, seeds="1,2"))
        run_cli(capsys, *cli_run_args(b, seeds="1,2", extra=("--jobs", "2")))
        for s in (1, 2):
            assert (a / f"exp_{s}.csv").read_bytes() == (b / f"exp_{s}.csv").read_bytes()
            assert (a / f"exp_{s}.json").read_bytes() == (b / f"exp_{s}.json").read_bytes()


    def test_chunked_jobs_byte_identical(self, tmp_path, capsys, monkeypatch):
        # five model cells in one lockstep batch, in two contiguous chunks
        # (--jobs 2), and in batches of two lanes
        model = tmp_path / "model.json"
        run_cli(capsys, "gen", "--generator", "random_model", "--param", "S=6",
                "--param", "seed=3", "--out", str(model))
        outs = []
        for jobs, lane_rounds in (("1", cli.BATCH_LANE_ROUNDS), ("2", cli.BATCH_LANE_ROUNDS),
                                  ("1", 300)):
            monkeypatch.setattr(cli, "BATCH_LANE_ROUNDS", lane_rounds)
            out = tmp_path / f"jobs{jobs}_{lane_rounds}"
            code, text = run_cli(capsys, "run", "--instance", str(model), "--T", "150",
                                 "--seeds", "0:5", "--jobs", jobs, "--out", str(out))
            assert code == 0
            outs.append(out)
            assert [os.path.basename(p) for p in json.loads(text)["written"]] == [
                f"run_{s}.json" for s in range(5)
            ]
        names = sorted(os.listdir(outs[0]))
        assert len(names) == 10
        for out in outs[1:]:
            assert sorted(os.listdir(out)) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_seed_list_over_the_limit_refused(self, tmp_path, capsys):
        limit = cli.MAX_LIST_LENGTH
        assert len(cli._parse_int_list(f"5:{5 + limit}")) == limit
        for text in (f"0:{limit + 1}", f"1:{limit + 1},7", "0:1000000000000"):
            with pytest.raises(cli.CliError, match="above the limit"):
                cli._parse_int_list(text)
        code, out = run_cli(capsys, *cli_run_args(tmp_path, seeds=f"0:{limit + 1}"))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError" and err["length"] == limit + 1
        assert not list(tmp_path.glob("*.csv"))

    def test_jobs_start_no_more_workers_than_payloads(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        started = []

        class InlinePool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        code, _ = run_cli(capsys, *cli_run_args(tmp_path, seeds="0:2", extra=("--jobs", "4")))
        assert code == 0
        assert started == [2]
        assert len(list(tmp_path.glob("exp_*.csv"))) == 2

    def test_horizon_too_large_to_hold_exits_2(self, tmp_path, capsys):
        # 10**15 rounds ask for ~7 PiB of row indices, a request that fails
        # before anything is allocated
        out = tmp_path / "d"
        code, text = run_cli(capsys, "run", "--generator", "pacing", "--T", str(10**15),
                             "--out", str(out))
        assert code == 2
        assert "MemoryError" in json.loads(text)["error"]["type"]
        assert not out.exists() or not any(out.iterdir())


class TestSweep:
    def sweep_args(self, out_dir, extra=()):
        return [
            "sweep",
            "--generator",
            "pacing",
            "--T",
            "60,120",
            "--seeds",
            "0:2",
            "--out",
            str(out_dir),
            "--name",
            "sw",
            "--benchmark",
            "lp",
            *extra,
        ]

    def test_sweep_aggregates(self, tmp_path, capsys):
        code, out = run_cli(capsys, *self.sweep_args(tmp_path))
        assert code == 0
        csv_path = tmp_path / "sw_sweep.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# config=") for l in comments)
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0].startswith("T,seed,reward,violation,tau,max_dual_l1")
        assert len(rows) == 1 + 4  # 2 horizons x 2 seeds
        fit = json.loads((tmp_path / "sw_sweep_fit.json").read_text())
        assert fit["T"] == [60, 120]

    def test_degenerate_sweep_matches_run(self, tmp_path, capsys):
        run_cli(
            capsys,
            "sweep",
            "--generator",
            "pacing",
            "--T",
            "60",
            "--seeds",
            "3",
            "--out",
            str(tmp_path / "s"),
            "--name",
            "cell",
        )
        run_cli(
            capsys,
            "run",
            "--generator",
            "pacing",
            "--T",
            "60",
            "--seeds",
            "3",
            "--out",
            str(tmp_path / "r"),
            "--name",
            "solo",
        )
        sweep_payload = json.loads((tmp_path / "s" / "cell_T60_3.json").read_text())
        run_payload = json.loads((tmp_path / "r" / "solo_3.json").read_text())
        assert sweep_payload["summary"] == run_payload["summary"]
        assert sweep_payload["instance_hash"] == run_payload["instance_hash"]

    def test_fit_means_match_rows_read_back(self, tmp_path, capsys):
        run_cli(capsys, *self.sweep_args(tmp_path))
        lines = (tmp_path / "sw_sweep.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        fit = json.loads((tmp_path / "sw_sweep_fit.json").read_text())
        for i, T in enumerate(fit["T"]):
            regs = [float(r[6]) for r in rows if int(r[0]) == T]
            assert fit["mean_regret"][i] == pytest.approx(
                sum(regs) / len(regs), rel=1e-12
            )

    def test_one_horizon_fit_has_no_slope(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "sweep", "--generator", "push_pull", "--T", "200",
                          "--seeds", "0:2", "--out", str(tmp_path), "--name", "one")
        assert code == 0
        fit = json.loads((tmp_path / "one_sweep_fit.json").read_text())
        assert fit["T"] == [200] and fit["mean_violation_positive_part"][0] > 0.0
        assert fit["slope_violation"] is None and fit["slope_regret"] is None
        assert cli._fit_loglog_slope([200, 200], [0.5, 0.25]) is None
        assert cli._fit_loglog_slope([100, 400], [1.0, 0.5]) == pytest.approx(-0.5)

    def test_incomplete_sweep_refuses_aggregation(self, tmp_path, capsys):
        code, _ = run_cli(capsys, *self.sweep_args(tmp_path))
        assert code == 0
        os.remove(tmp_path / "sw_T120_1.json")
        code, out = run_cli(capsys, *self.sweep_args(tmp_path, extra=("--aggregate-only",)))
        assert code == 2
        assert "missing cell output" in json.loads(out)["error"]["message"]

    def test_stale_cell_refused(self, tmp_path, capsys):
        code, _ = run_cli(capsys, *self.sweep_args(tmp_path))
        assert code == 0
        code, out = run_cli(
            capsys, *self.sweep_args(tmp_path, extra=("--aggregate-only", "--delta", "0.2"))
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError"
        assert "stale sweep cell" in err["message"]
        assert err["fields"] == ["delta"]

    @pytest.mark.parametrize(
        "drop",
        [
            ("summary",),
            ("instance_hash",),
            ("summary", "tau"),
            # (key, key, value): a field the fit reads set to a non-number
            ("summary", "violation", "x"),
            ("summary", "violation", None),
            ("summary", "regret", "x"),
        ],
    )
    def test_cell_missing_field_refused(self, tmp_path, capsys, drop):
        code, _ = run_cli(capsys, *self.sweep_args(tmp_path))
        assert code == 0
        path = tmp_path / "sw_T60_1.json"
        payload = json.loads(path.read_text())
        keys = drop[:2]
        holder = payload
        for key in keys[:-1]:
            holder = holder[key]
        if len(drop) == 3:
            holder[keys[-1]] = drop[-1]
        else:
            del holder[keys[-1]]
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, *self.sweep_args(tmp_path, extra=("--aggregate-only",)))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError"
        assert err["path"] == str(path)
        assert err["field"] == keys[-1]

    @pytest.mark.parametrize("field", ["violation", "regret"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_cell_non_finite_field_refused(self, tmp_path, capsys, field, value):
        """JSON parsing accepts NaN and +-Infinity; a cell holding one is
        damaged, and the sweep files are left as they were."""
        assert run_cli(capsys, *self.sweep_args(tmp_path))[0] == 0
        outputs = [tmp_path / "sw_sweep.csv", tmp_path / "sw_sweep_fit.json"]
        before = [p.read_bytes() for p in outputs]
        path = tmp_path / "sw_T120_0.json"
        payload = json.loads(path.read_text())
        payload["summary"][field] = value
        path.write_text(json.dumps(payload))  # written as NaN / Infinity / -Infinity
        code, out = run_cli(capsys, *self.sweep_args(tmp_path, extra=("--aggregate-only",)))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError"
        assert err["message"].startswith(f"damaged sweep cell {path}: field {field!r}")
        assert err["path"] == str(path)
        assert err["field"] == field
        assert [p.read_bytes() for p in outputs] == before

    def test_model_file_loaded_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "pacing.json"
        ob.save_instance(ob.make_pacing_model(), path)
        loads = []
        real = cli.load_instance
        monkeypatch.setattr(cli, "load_instance", lambda p: loads.append(p) or real(p))
        args = ["--instance", str(path), "--seeds", "0:2", "--out", str(tmp_path)]
        assert run_cli(capsys, "sweep", "--T", "30,60", *args, "--benchmark", "lp")[0] == 0
        assert run_cli(capsys, "run", "--T", "30", *args)[0] == 0
        assert len(loads) == 2  # one per command, not one per cell


class TestOracleCommand:
    def test_instance_reports(self, tmp_path, capsys):
        inst = ob.random_instance(2, T=5, K=3, m=1, n=1, feasibility_margin=0.25)
        path = tmp_path / "inst.json"
        ob.save_instance(inst, path)
        code, out = run_cli(capsys, "oracle", "--instance", str(path))
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports["opt_lp"]["opt_value"] >= reports["opt_bruteforce"]["opt_value"] - 1e-7
        assert reports["slater_adv"]["rho"] >= 0.25

    def test_model_reports(self, tmp_path, capsys):
        model = ob.random_model(2, S=2, K=3, m=1, n=1, feasibility_margin=0.25)
        path = tmp_path / "model.json"
        ob.save_instance(model, path)
        code, out = run_cli(
            capsys,
            "oracle",
            "--instance",
            str(path),
            "--T",
            "4",
            "--num-samples",
            "10",
            "--seed",
            "1",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports["slater_stoc"]["rho"] >= 0.25
        assert reports["opt_stoc"]["method"] == "monte_carlo"

    @pytest.mark.parametrize(
        "source, slater, kept",
        [
            (("--generator", "random"), "slater_adv", ("opt_bruteforce", "opt_lp")),
            (("--generator", "random_model", "--T", "4"), "slater_stoc", ("opt_stoc",)),
        ],
    )
    def test_no_constraints_slater_not_applicable(self, capsys, source, slater, kept):
        params = ("--param", "T=5", "--param", "m=0", "--param", "n=0", "--param", "K=3")
        code, out = run_cli(capsys, "oracle", *source, *params)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports[slater] == {"status": "not_applicable"}
        assert all("opt_value" in reports[key] for key in kept)

    @pytest.mark.parametrize(
        "source, which, kind",
        [
            (("--generator", "random", "--param", "T=5"), "slater_stoc", "instance"),
            (("--generator", "random", "--param", "T=5"), "opt_stoc", "instance"),
            (("--generator", "pacing"), "opt_bruteforce", "stochastic model"),
        ],
    )
    def test_oracle_not_applicable_to_the_source_exits_2(self, capsys, source, which, kind):
        code, out = run_cli(capsys, "oracle", *source, "--which", which)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError"
        assert err["message"].startswith(
            f"oracle {which} does not apply to the {kind} source; it takes "
        )

    def test_guard_failure_is_loud_when_explicit(self, tmp_path, capsys):
        inst = ob.random_instance(2, T=40, K=4, m=1, n=1, feasibility_margin=0.25)
        path = tmp_path / "big.json"
        ob.save_instance(inst, path)
        code, out = run_cli(
            capsys, "oracle", "--instance", str(path), "--which", "opt_bruteforce"
        )
        assert code == 2
        assert "guard" in json.loads(out)["error"]["message"]


class TestLpSizeGuard:
    ARGS = ("--generator", "random", "--param", "T=8000")

    def test_run_benchmark_lp_refused(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "run", *self.ARGS, "--benchmark", "lp", "--out", str(tmp_path)
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SizeGuardError"
        assert "guard" in err["message"]

    def test_oracle_all_reports_lp_skipped(self, capsys):
        code, out = run_cli(capsys, "oracle", *self.ARGS)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert "guard" in reports["opt_lp"]["skipped"]
        assert reports["slater_adv"]["rho"] >= 0.2


@pytest.mark.parametrize(
    "kind, pointer",
    [
        ("instance", "/rounds/0/f/1"),
        ("instance", "/beta/0"),
        ("model", "/support/0/f/1"),
        ("model", "/probs/0"),
    ],
)
def test_number_beyond_float_range_exits_2(tmp_path, capsys, kind, pointer):
    if kind == "instance":
        inst = ob.random_instance(5, T=20, K=3, m=1, n=1, feasibility_margin=0.2)
        payload = serialization.to_dict(inst)
    else:
        payload = serialization.to_dict(ob.make_pacing_model())
    *path, last = [int(k) if k.isdigit() else k for k in pointer[1:].split("/")]
    node = payload
    for key in path:
        node = node[key]
    node[last] = 10**400  # json writes it as a 401-digit integer literal
    source = tmp_path / "big.json"
    source.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "run", "--instance", str(source), "--T", "20",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "SchemaError"
    assert err["message"].startswith(f"{pointer}: ")


@pytest.mark.parametrize("kind", ["instance", "model"])
@pytest.mark.parametrize("field", ["m", "n"])
def test_negative_dimension_exits_2_with_pointer(tmp_path, capsys, kind, field):
    if kind == "instance":
        inst = ob.random_instance(5, T=20, K=3, m=1, n=1, feasibility_margin=0.2)
        payload = serialization.to_dict(inst)
    else:
        payload = serialization.to_dict(ob.make_pacing_model())
    payload[field] = -1
    source = tmp_path / "negative.json"
    source.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "run", "--instance", str(source), "--T", "20",
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "SchemaError", "message": f"/{field}: expected integer >= 0, got -1"
    }


def test_validation_texts_print_plain_floats(tmp_path, capsys):
    """Issue texts format numpy scalars as Python floats, so they read the
    same under every numpy version."""
    code, out = run_cli(capsys, "run", "--generator", "pacing", "--T", "3", "--seeds", "0",
                        "--out", str(tmp_path / "out"), "--benchmark", "bruteforce")
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "invalid instance: instance: budget[0]: beta[0]*T = 0.75 < 1: "
        "budget gate closed at round 1"
    )
    payload = serialization.to_dict(
        ob.random_instance(5, T=4, K=3, m=1, n=1, feasibility_margin=0.2)
    )
    payload["rounds"][1]["f"][2] = 1.5
    source = tmp_path / "range.json"
    source.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "run", "--instance", str(source), "--out", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "invalid instance: round 2: reward[2]: value 1.5 outside [0.0, 1.0]"
    )


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("entry", ["run", "audit", "sweep"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, entry):
    if entry == "run":
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        argv = ["run", "--instance", str(path), "--out", str(tmp_path / "out")]
    elif entry == "audit":
        assert run_cli(capsys, *cli_run_args(tmp_path))[0] == 0
        path = tmp_path / "exp_7.csv"
        lines = path.read_text().splitlines()
        lines = [f"# config={DEEP_JSON}" if l.startswith("# config=") else l for l in lines]
        path.write_text("\n".join(lines) + "\n")
        argv = ["audit", str(path)]
    else:
        argv = ["sweep", "--generator", "pacing", "--T", "30", "--seeds", "0",
                "--out", str(tmp_path), "--name", "sw"]
        assert run_cli(capsys, *argv)[0] == 0
        (tmp_path / "sw_T30_0.json").write_text(DEEP_JSON)
        argv.append("--aggregate-only")
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert "nested too deeply" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("probs", [[float("nan")] * 2, [float("nan"), 1.0]],
                         ids=["nan_nan", "nan_one"])
def test_non_finite_probabilities_exit_2(tmp_path, capsys, probs):
    payload = serialization.to_dict(ob.make_push_pull_model())
    payload["probs"] = probs
    source = tmp_path / "nan.json"
    source.write_text(json.dumps(payload))  # written as NaN, which json reads back
    out = tmp_path / "out"
    for argv in (["run", "--instance", str(source), "--T", "50", "--out", str(out)],
                 ["oracle", "--instance", str(source), "--which", "slater_stoc"]):
        code, text = run_cli(capsys, *argv)
        assert code == 2, argv
        err = json.loads(text)["error"]
        assert err == {"type": "SchemaError",
                       "message": "/probs: probabilities must be finite"}, argv
    assert not out.exists()


#: SHA-256 of the files one run cell writes; a change to any of them is a
#: change to the program's output.
RUN_CELL_SHA256 = {
    "pacing_0.csv": "e4d49d459750a8e5fb50f02d86062c6aa235632bb80dfd9caea274e0307345b7",
    "pacing_0.json": "244e476d0997427febd2eb09a71c7f8d0df8b9a4fae4d2c64e4ea7087f5cdf8c",
    "random_model_0.csv": "e0aec23f012207c4b6e8176ec8e5f48e40f1e5ef4c5d611f527dba828319c709",
    "random_model_0.json": "97dc89fdbb9a2d024d31e2d0f411c61fa59f88b20f92ae125e610653f542b1d3",
}


@pytest.mark.parametrize("generator", ["pacing", "random_model"])
def test_run_cell_bytes_pinned(tmp_path, capsys, generator):
    code, _ = run_cli(capsys, "run", "--generator", generator, "--seeds", "0",
                      "--out", str(tmp_path), "--name", generator)
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == {k: v for k, v in RUN_CELL_SHA256.items() if k.startswith(generator)}


class TestGen:
    def test_gen_writes_loadable_file(self, tmp_path, capsys):
        path = tmp_path / "ex1.json"
        code, out = run_cli(
            capsys,
            "gen",
            "--generator",
            "example1_general",
            "--param",
            "T=50",
            "--out",
            str(path),
        )
        assert code == 0
        obj = ob.load_instance(path)
        assert isinstance(obj, ob.StochasticModel)
        assert obj.validate().ok


    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_unknown_generator_parameter_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, text = run_cli(capsys, command, "--generator", "push_pull", "--param", "t=500",
                             "--param", "betta=0.1", "--out", str(out))
        assert code == 2
        err = json.loads(text)["error"]
        assert err["type"] == "ValidationError"
        assert "['betta', 't']" in err["message"] and "accepted: ['T']" in err["message"]
        assert not out.exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(ob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, ora_bob.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


class TestAudit:
    def make_trace(self, tmp_path, capsys, name="exp"):
        run_cli(capsys, *cli_run_args(tmp_path, name=name))
        return tmp_path / f"{name}_7.csv"

    def test_fresh_trace_passes(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        code, out = run_cli(capsys, "audit", str(trace), "--pairs", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        result = payload["traces"][0]
        assert result["exactness"]["ok"]
        assert result["audits"]["dual_drift"]["ok"]
        assert result["audits"]["dominance"]["ok"]
        assert result["audits"]["budget_exactness"]["ok"] is None  # n = 0
        assert result["interval_regret"]["failures"] == 0
        assert len(result["interval_regret"]["pairs"]) == 20
        first = result["interval_regret"]["pairs"][0]
        assert set(first) == {"t1", "t2", "mu", "lhs", "rhs", "holds"}

    def test_source_loaded_once_per_command(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "pacing.json"
        ob.save_instance(ob.make_pacing_model(), path)
        run_args = ["--instance", str(path), "--T", "60", "--seeds", "0:2"]
        assert run_cli(capsys, "run", *run_args, "--out", str(tmp_path), "--name", "tr")[0] == 0
        traces = [str(tmp_path / f"tr_{seed}.csv") for seed in (0, 1)]
        loads = []
        real = cli.load_instance
        monkeypatch.setattr(cli, "load_instance", lambda p: loads.append(p) or real(p))
        for override in ((), ("--instance", str(path))):
            loads.clear()
            code, out = run_cli(capsys, "audit", *traces, "--pairs", "5", *override)
            assert code == 0
            assert len(json.loads(out)["traces"]) == 2
            assert loads == [str(path)]  # one load for both traces of the model

    def test_lockstep_reports_match_single_audits(self, tmp_path, capsys, monkeypatch):
        path, fixed = tmp_path / "pacing.json", tmp_path / "fixed.json"
        ob.save_instance(ob.make_pacing_model(), path)
        inst = ob.random_instance(5, T=60, K=3, m=1, n=2, feasibility_margin=0.2)
        ob.save_instance(inst, fixed)
        for source, T, seeds, name in (
            (path, "60", "0:3", "a"),
            (path, "90", "0:2", "b"),
            (fixed, "60", "0:2", "c"),
        ):
            run_args = ("--instance", str(source), "--T", T, "--seeds", seeds)
            assert run_cli(capsys, "run", *run_args, "--out", str(tmp_path), "--name", name)[0] == 0
        # five traces of (pacing, T=60), one given twice, in lanes of 2 at a time
        monkeypatch.setattr(cli, "BATCH_LANE_ROUNDS", 120)
        names = ["a_0", "c_0", "b_0", "a_1", "a_0", "c_1", "a_2", "b_1", "a_1"]
        traces = [str(tmp_path / f"{n}.csv") for n in names]
        code, out = run_cli(capsys, "audit", *traces, "--pairs", "5")
        assert code == 0
        reports = json.loads(out)["traces"]
        assert [r["trace"] for r in reports] == traces
        for trace, report in zip(traces, reports):
            code, alone = run_cli(capsys, "audit", trace, "--pairs", "5")
            assert code == 0
            assert json.dumps(report, indent=1) == json.dumps(
                json.loads(alone)["traces"][0], indent=1
            )

    def test_traces_of_one_model_and_horizon_replay_in_one_call(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "pacing.json"
        ob.save_instance(ob.make_pacing_model(), path)
        run_args = ["--instance", str(path), "--T", "60", "--seeds", "0:2"]
        assert run_cli(capsys, "run", *run_args, "--out", str(tmp_path), "--name", "tr")[0] == 0
        calls = []
        real = cli.run_lanes
        monkeypatch.setattr(cli, "run_lanes", lambda inst, config: calls.append(len(inst))
                            or real(inst, config))
        traces = [str(tmp_path / f"tr_{seed}.csv") for seed in (0, 1)]
        code, out = run_cli(capsys, "audit", *traces, "--pairs", "5")
        assert code == 0
        assert calls == [2]

    def test_corrupted_lambda_cell_detected(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        header_end = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        target_row = header_end + 50
        cells = lines[target_row].split(",")
        cells[6] = "99.5"  # lambda_l1 column
        lines[target_row] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace), "--pairs", "5")
        assert code == 1
        result = json.loads(out)["traces"][0]
        assert not result["exactness"]["ok"]
        assert any(
            mm["column"] == "lambda_l1" and mm["round"] == 50
            for mm in result["exactness"]["mismatches"]
        )

    def test_budget_audit_applicable_with_resources(self, tmp_path, capsys):
        inst = ob.random_instance(5, T=50, K=3, m=1, n=2, feasibility_margin=0.2)
        path = tmp_path / "inst.json"
        ob.save_instance(inst, path)
        run_cli(
            capsys,
            "run",
            "--instance",
            str(path),
            "--seeds",
            "0",
            "--out",
            str(tmp_path),
            "--name",
            "bud",
        )
        code, out = run_cli(capsys, "audit", str(tmp_path / "bud_0.csv"), "--pairs", "5")
        assert code == 0
        result = json.loads(out)["traces"][0]
        assert result["audits"]["budget_exactness"]["ok"] is True
        assert result["audits"]["telescoped_violation"]["ok"] is True

    def test_schema_version_mismatch_refused(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        text = trace.read_text().replace("# schema_version=1", "# schema_version=99")
        trace.write_text(text)
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        assert "schema_version" in json.loads(out)["error"]["message"]

    def test_instance_hash_mismatch_refused(self, tmp_path, capsys):
        inst = ob.random_instance(5, T=50, K=3, m=1, n=1, feasibility_margin=0.2)
        other = ob.random_instance(6, T=50, K=3, m=1, n=1, feasibility_margin=0.2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ob.save_instance(inst, p1)
        ob.save_instance(other, p2)
        run_cli(
            capsys,
            "run", "--instance", str(p1), "--seeds", "0",
            "--out", str(tmp_path), "--name", "h",
        )
        code, out = run_cli(
            capsys, "audit", str(tmp_path / "h_0.csv"), "--instance", str(p2)
        )
        assert code == 2
        assert "hash mismatch" in json.loads(out)["error"]["message"]

    def test_short_row_exits_2(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        first_row = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
        lines[first_row] = ",".join(lines[first_row].split(",")[:3])
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "TraceFormatError"
        assert "data row 1 has 3 fields" in err["message"]

    @pytest.mark.parametrize("edit", ["drop_last_row", "forge_T"])
    def test_row_count_differing_from_T_exits_2(self, tmp_path, capsys, edit):
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        if edit == "drop_last_row":
            lines.pop()
        else:  # a horizon no instance of that many rounds could be sampled for
            lines = [("# T=10000000000000" if l.startswith("# T=") else l) for l in lines]
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "TraceFormatError"
        assert "data rows, but the header says T=" in err["message"]

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("action", "99999999999999999999"),
            ("action", "1.0"),
            ("action", "1e0"),
            ("action", "1_0"),
            ("reward", "abc"),
        ],
    )
    def test_unparsable_cell_exits_2(self, tmp_path, capsys, column, cell):
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        names_row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        cells = lines[names_row + 1].split(",")
        cells[lines[names_row].split(",").index(column)] = cell
        lines[names_row + 1] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "TraceFormatError"
        assert repr(cell) in err["message"]

    @pytest.mark.parametrize(
        "config, error, message",
        [
            (None, "TraceFormatError", "lacks config"),
            ("[]", "TraceFormatError", "names no source"),
            ('{"source": {}}', "CliError", "neither a path nor a generator"),
            ('{"source": {"path": ["x"]}}', "CliError", "is not a string"),
            ('{"source": {"generator": 1, "params": {}}}', "CliError", "is not a string"),
            (
                '{"source": {"generator": "example1_general", "params": ["T"]}}',
                "CliError",
                "not an object of strings",
            ),
        ],
    )
    def test_damaged_config_header_exits_2(self, tmp_path, capsys, config, error, message):
        trace = self.make_trace(tmp_path, capsys)
        lines = [l for l in trace.read_text().splitlines() if not l.startswith("# config=")]
        if config is not None:
            lines.insert(0, f"# config={config}")
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == error
        assert message in err["message"]

    def test_negative_pairs_exit_2(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        code, out = run_cli(capsys, "audit", str(trace), "--pairs", "-1")
        assert code == 2
        assert "--pairs must be >= 0" in json.loads(out)["error"]["message"]

    def test_audit_output_file(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        out_path = tmp_path / "audit.json"
        code, _ = run_cli(
            capsys, "audit", str(trace), "--pairs", "5", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["ok"]
