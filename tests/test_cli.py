import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ora_bob as ob
from ora_bob import cli, serialization, traceio
from ora_bob.traceio import REQUIRED_HEADER_KEYS, read_trace_csv


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
        assert payload["schema_version"] == traceio.SCHEMA_VERSION
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

    @pytest.mark.parametrize("command, extra, field", [
        ("run", ("--eta", "0"), "eta"),
        ("run", ("--eta", "inf"), "eta"),
        ("run", ("--eta", "0.1", "--delta", "1.5"), "delta"),
        ("sweep", ("--eta", "inf"), "eta"),
    ], ids=["eta0", "eta_inf", "delta_above_1", "sweep_eta_inf"])
    def test_zero_eta_rejected_before_running(self, tmp_path, capsys, command, extra, field):
        # (eta, delta) is checked before --out is created, which is not left behind
        argv = cli_run_args(tmp_path / "out", extra=extra)
        if command == "sweep":
            argv[0], argv[argv.index("--T") + 1] = "sweep", "5,6"
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert f"{field} must be" in json.loads(out)["error"]["message"]
        assert os.listdir(tmp_path) == []

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

    def test_no_constraints_run_without_eta(self, tmp_path, capsys):
        """With m = n = 0 the dual vector is empty, so the schedule is the
        M = 1 one and the run, its audit and a sweep all succeed."""
        params = ("--generator", "random_model", "--param", "S=6", "--param", "K=3",
                  "--param", "m=0", "--param", "n=0")
        out = tmp_path / "r"
        code, text = run_cli(capsys, "run", *params, "--T", "300", "--seeds", "0:3",
                             "--out", str(out))
        assert code == 0, text
        payload = json.loads((out / "run_0.json").read_text())
        assert payload["config"]["eta"] == ob.learning_rate(300, 1, 0.05)
        traces = [str(out / f"run_{s}.csv") for s in range(3)]
        assert run_cli(capsys, "audit", *traces, "--pairs", "5")[0] == 0
        assert run_cli(capsys, "sweep", *params, "--T", "100,200", "--out",
                       str(tmp_path / "s"))[0] == 0
        inst = ob.random_instance(0, T=50, K=3, m=0, n=0, feasibility_margin=0.2)
        assert ob.default_config(inst).eta == ob.learning_rate(50, 1, 0.05)

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
        # the cells' scheduled eta was worked out under the old delta too
        assert err["fields"] == ["delta", "eta"]

    @pytest.mark.parametrize(
        "drop",
        [
            ("summary",),
            ("instance_hash",),
            ("summary", "tau"),
            # (key, ..., key, value): a field the sweep reads set to a wrong type
            ("summary", "violation", "x"),
            ("summary", "violation", None),
            ("summary", "regret", "x"),
            # an integer beyond the float range
            ("summary", "tau", 10**400),
            # pass/fail flags that are not true, false or null
            ("summary", "budget_feasible", "no"),
            ("summary", "bounds", "drift", "satisfied", 0),
        ],
    )
    def test_cell_missing_field_refused(self, tmp_path, capsys, drop):
        code, _ = run_cli(capsys, *self.sweep_args(tmp_path))
        assert code == 0
        outputs = [tmp_path / "sw_sweep.csv", tmp_path / "sw_sweep_fit.json"]
        before = [p.read_bytes() for p in outputs]
        path = tmp_path / "sw_T60_1.json"
        payload = json.loads(path.read_text())
        keys = drop if len(drop) < 3 else drop[:-1]
        holder = payload
        for key in keys[:-1]:
            holder = holder[key]
        if len(drop) < 3:
            del holder[keys[-1]]
        else:
            holder[keys[-1]] = drop[-1]
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, *self.sweep_args(tmp_path, extra=("--aggregate-only",)))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "CliError"
        assert err["path"] == str(path)
        # a missing key is named alone, a wrong value by its path in the summary
        assert err["field"] == (keys[-1] if len(drop) < 3 else ".".join(keys[1:]))
        assert [p.read_bytes() for p in outputs] == before

    @pytest.mark.parametrize("field", [
        "violation", "regret", "total_reward", "tau", "max_dual_l1", "alpha_regret",
        "bounds.violation.value", "bounds.regret.value", "bounds.dual_norm.value",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_cell_non_finite_field_refused(self, tmp_path, capsys, field, value):
        """JSON parsing accepts NaN and +-Infinity; a cell holding one in any
        number the sweep CSV copies is damaged, and the sweep files are left
        as they were."""
        assert run_cli(capsys, *self.sweep_args(tmp_path))[0] == 0
        outputs = [tmp_path / "sw_sweep.csv", tmp_path / "sw_sweep_fit.json"]
        before = [p.read_bytes() for p in outputs]
        path = tmp_path / "sw_T120_0.json"
        payload = json.loads(path.read_text())
        *keys, last = field.split(".")
        holder = payload["summary"]
        for key in keys:
            holder = holder[key]
        holder[last] = value
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

    @pytest.mark.parametrize("command", ["oracle", "run"])
    def test_horizon_conflicting_with_instance_exits_2(self, tmp_path, capsys, command):
        extra = ("--which", "slater_adv") if command == "oracle" else ("--out", str(tmp_path / "out"))
        code, out = run_cli(capsys, command, "--generator", "random", "--param", "T=5",
                            "--T", "99", *extra)
        assert code == 2
        assert os.listdir(tmp_path) == []  # a refused run leaves no --out directory
        assert json.loads(out)["error"] == {
            "type": "CliError",
            "message": "--T 99 conflicts with the fixed instance horizon 5",
        }

    @pytest.mark.parametrize("kind", ["instance", "model"])
    def test_invalid_source_exits_2_as_run_does(self, tmp_path, capsys, kind):
        if kind == "instance":
            payload = serialization.to_dict(
                ob.random_instance(5, T=4, K=3, m=1, n=1, feasibility_margin=0.2)
            )
            payload["rounds"][0]["f"][1] = 7.5
            payload["rounds"][1]["h"][0][0] = 0.4  # the void column
            message = ("invalid instance: round 1: reward[1]: value 7.5 outside [0.0, 1.0]; "
                       "round 2: void_column[0, 0]: void-column consumption is 0.4, expected 0")
        else:
            payload = serialization.to_dict(
                ob.random_model(2, S=2, K=3, m=1, n=1, feasibility_margin=0.25)
            )
            payload["support"][0]["g"][0][1] = 5.0
            message = "invalid model: support row 1: general_cost[0, 1]: value 5.0 outside [-1.0, 1.0]"
        source = tmp_path / "bad.json"
        source.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "oracle", "--instance", str(source), "--T", "4")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InstanceValidationError", "message": message}

    def test_model_validated_at_the_command_horizon(self, capsys):
        # pacing's beta = 0.25: the gate is closed from round 1 at T = 3
        code, out = run_cli(capsys, "oracle", "--generator", "pacing", "--T", "3")
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            "invalid model: model: budget[0]: beta[0]*T = 0.75 < 1: "
            "budget gate closed at round 1"
        )


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
        assert "10000000" in reports["opt_bruteforce"]["skipped"]
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


def test_hard_cap_beyond_float_range_exits_2(tmp_path, capsys):
    payload = serialization.to_dict(
        ob.random_instance(5, T=20, K=3, m=1, n=1, feasibility_margin=0.2)
    )
    payload["beta"][0] = 1e308  # finite, but beta * T is not
    source = tmp_path / "huge_budget.json"
    source.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "run", "--instance", str(source), "--out", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "SchemaError", "message": "/: beta[0] = 1e+308 is above MAX_BUDGET = 2**64"
    }


def test_budget_above_max_budget_exits_2(tmp_path, capsys):
    """beta * T = 5e301 is finite, but a budget near 1e300 overflowed the
    allocator's certification margins."""
    payload = serialization.to_dict(
        ob.random_model(4, S=4, K=3, m=1, n=1, feasibility_margin=0.2)
    )
    payload["beta"] = [1e300]
    source = tmp_path / "huge_budget.json"
    source.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code, text = run_cli(capsys, "run", "--instance", str(source), "--T", "50", "--out", str(out))
    assert code == 2
    assert json.loads(text)["error"] == {
        "type": "SchemaError", "message": "/: beta[0] = 1e+300 is above MAX_BUDGET = 2**64"
    }
    assert not out.exists()
    limit = ob.core.MAX_BUDGET
    assert ob.BudgetSpec(ob.core.MAX_HORIZON, [limit]).limits[0] == 2.0**117
    with pytest.raises(ob.ValidationError, match="MAX_BUDGET"):
        ob.BudgetSpec(50, [0.5, np.nextafter(limit, np.inf)])


HUGE_T = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--generator", "random_model", "--T", HUGE_T, "--out", "{out}"),
        ("sweep", "--generator", "random_model", "--T", HUGE_T, "--out", "{out}"),
        ("oracle", "--generator", "pacing", "--T", HUGE_T),
        ("gen", "--generator", "pacing", "--param", f"T={HUGE_T}", "--out", "{out}.json"),
        ("run", "--generator", "random", "--param", f"T={HUGE_T}", "--out", "{out}"),
        ("gen", "--generator", "random_model", "--param", "T=0", "--out", "{out}.json"),
        ("gen", "--generator", "example1_budget", "--param", f"T={HUGE_T}", "--out", "{out}.json"),
        ("sweep", "--generator", "random_model", "--T", f"2,{HUGE_T}", "--out", "{out}"),
        ("sweep", "--generator", "random_model", "--T", HUGE_T, "--aggregate-only", "--out", "{out}"),
    ],
)
def test_horizon_beyond_max_horizon_exits_2(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    code, text = run_cli(capsys, *(arg.format(out=out) for arg in argv))
    assert code == 2
    err = json.loads(text)["error"]
    assert err["type"] == "ValidationError" and "MAX_HORIZON = 2**53" in err["message"]
    assert os.listdir(tmp_path) == []
    limit = ob.core.MAX_HORIZON
    assert ob.BudgetSpec(limit, [0.5]).horizon == limit
    for beta in ([0.5], []):
        with pytest.raises(ob.ValidationError, match="MAX_HORIZON"):
            ob.BudgetSpec(limit + 1, beta)
    with pytest.raises(ob.ValidationError, match="MAX_HORIZON"):
        ob.learning_rate(limit + 1, 1, 0.05)


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "absent.csv", "--pairs"),
        ("oracle", "--generator", "pacing", "--T", "20", "--which", "opt_stoc", "--num-samples"),
    ],
)
def test_count_over_the_limit_exits_2(capsys, argv):
    code, out = run_cli(capsys, *argv, str(cli.MAX_LIST_LENGTH + 1))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "CliError"
    assert f"at most {cli.MAX_LIST_LENGTH}, got {cli.MAX_LIST_LENGTH + 1}" in err["message"]


@pytest.mark.parametrize("argv", [
    ("run", "--generator", "pacing", "--T", "abc", "--out", "out"),
    ("run", "--generator", "pacing", "--bogus", "1", "--out", "out"),
    ("run", "--generator", "pacing"),
    ("sweep", "--generator", "pacing", "--jobs", "two", "--out", "out"),
    ("frobnicate",),
    (),
    ("oracle", "--generator", "pacing", "--guard", "5"),
], ids=["bad_int", "unknown_option", "missing_out", "sweep_bad_int", "unknown_command",
        "no_command", "removed_guard"])
def test_usage_error_prints_the_error_json(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CliError" and err["message"].startswith("ora-bob")
    assert captured.err == ""
    assert os.listdir(tmp_path) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "-h"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


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


#: SHA-256 of the files one run cell writes and of the other records the CLI
#: writes (keys "<record>/<file>"); a change to any of them is a change to
#: the program's output.
RUN_CELL_SHA256 = {
    "pacing_0.csv": "81e44fc6bd00e4c304550e44b3002532fa44da800ef4a4b83a67006ef3c08279",
    "pacing_0.json": "ff958ba6b4fb5f82d3c709137282c3858c407d4030470a42d8946528bdb3c90e",
    "random_model_0.csv": "827076a166302b529188879a07fe2959da74b41dfc40585c0d7a1be50354b2e1",
    "random_model_0.json": "75f1cf6891b269f05c1a167d2e5c35c3d217562f9591589f1266d0e4dfacfeb9",
    "sweep/sw_T100_0.csv": "508ef03faeb4f0a3a9cbeed262687efcc0f96da589d52cfe32ae8539bcb8ee7b",
    "sweep/sw_T100_0.json": "0fe971b84b627b201c2f5af9adf01617b3ea8c9850f82345668b063aaa5d5122",
    "sweep/sw_T100_1.csv": "81d8188ecca319fae6acd2d470ae7f82fb62f3c2fcc855b6be8661d257cb97a4",
    "sweep/sw_T100_1.json": "7879bd2940d526cc9557474a8bd3b2f5b80aef23648ad1a77dc20894cab9b197",
    "sweep/sw_T200_0.csv": "82c7e60a72a98234c8f4892a6e888614b0fc9b2cf2b20f9517d80541fa123a7b",
    "sweep/sw_T200_0.json": "42963921da034e13ac181270526023be007178aa5438be6b4fe5dfb98d8b56b9",
    "sweep/sw_T200_1.csv": "52efa1fe3002c02f1097e68384f1324c122774845276b99baef0bd6da556eb67",
    "sweep/sw_T200_1.json": "8d977103d5c4ac980ef79ff75c2725e316da2d887e4b6e20672828aaa42d9d19",
    "sweep/sw_sweep.csv": "18706f30ac5c11c1f2092db4184e610386e7a67995aa277466bead73e0436a9f",
    "sweep/sw_sweep_fit.json": "daaef2a89773c72245cfedeb904446cc9e93e602a8cc0f2c0211dc24d3620177",
    "oracle/instance": "d7f3f4bbdb37d2919ed608022e781e2f182efe7eaf1b2122adb71d69f24ba0bc",
    "oracle/model": "ac3d93ebe2aca25fc085ba9a599f48fba0f2b0a0e2c8ea2ecc347154a6a609d2",
    "oracle/model_no_T": "e0e3cc2ad3ea79ed6c272ca18cf98f6c5d126da55236a44d9a7d057687a3b26b",
    "gen/example1_budget.json": "d9640451ab46c273fa643d384da99cd4eaa31c7a1a045a90e930b541f570cd75",
    "gen/example1_general.json": "8259342eee96d7f8c18308ae9729f9b9fb6b2ececb6bfedca584a276382a051c",
    "gen/pacing.json": "65a88c475d0a1b1e60248a861a869e923df19e27e61a3f28867fd6f43f35d94e",
    "gen/push_pull.json": "f3926788abb989b4fe4fe9de4d8eb5e7e28299cf74a4393285f972a80765f3de",
    "gen/random.json": "38e21b93bbdb6d84c760c26dbd0612f61e429f16ac573304fbc78c061219e244",
    "gen/random_model.json": "a5faf1d202e8b057e63fe5817abc50c9c9e69d0ce2d6f88f913e6c2008f4b353",
    "audit/audit.json": "45e680b5415650417d6095534bf6f80ecde178859b662afa583099615505306e",
}


@pytest.mark.parametrize("generator", ["pacing", "random_model"])
def test_run_cell_bytes_pinned(tmp_path, capsys, generator):
    code, _ = run_cli(capsys, "run", "--generator", generator, "--seeds", "0",
                      "--out", str(tmp_path), "--name", generator)
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == {k: v for k, v in RUN_CELL_SHA256.items() if k.startswith(generator)}


@pytest.mark.parametrize("m, n", [pytest.param(0, 1, id="0"), pytest.param(1, 1, id="1"),
                                  pytest.param(2, 1, id="2"), pytest.param(1, 0, id="1-n0")])
def test_summary_and_audit_read_the_trace_cells(tmp_path, capsys, m, n):
    """A run's running totals have one definition: the summary's totals are
    the trace's final cells and the audit's telescoped sums the run's
    cumulative general costs at tau, bit for bit.  At m = 1 a pairwise sum
    of the general column differs from the trace's in its last bits.  Each
    verdict has one definition too: the summary's budget and drift verdicts
    are the audit's."""
    argv = ("run", "--generator", "random_model", "--param", f"m={m}", "--param", f"n={n}",
            "--seeds", "0", "--out", str(tmp_path), "--name", "c")
    assert run_cli(capsys, *argv)[0] == 0
    trace = tmp_path / "c_0.csv"
    summary = json.loads((tmp_path / "c_0.json").read_text())["summary"]
    _, columns = read_trace_csv(trace)
    assert summary["total_reward"].hex() == float(columns["cum_reward"][-1]).hex()
    assert summary["violation"].hex() == float(columns["max_general_violation_cum"][-1]).hex()
    assert summary["max_dual_l1"].hex() == float(columns["lambda_l1"].max()).hex()

    code, out = run_cli(capsys, "audit", str(trace), "--pairs", "0")
    assert code == 0
    audits = json.loads(out)["traces"][0]["audits"]
    telescoped, drift = audits["telescoped_violation"], audits["dual_drift"]
    assert summary["budget_feasible"] is audits["budget_exactness"]["ok"]
    assert (summary["budget_feasible"] is None) == (n == 0)
    assert summary["max_drift"].hex() == drift["max_drift"].hex()
    assert summary["bounds"]["drift"] == {"value": drift["bound"], "satisfied": drift["ok"]}
    _, instance, config, _ = cli._read_trace(trace, None, {})
    tr = ob.run(instance, config)
    T, tau = tr.horizon, tr.stopping_time
    if m:
        assert [v.hex() for v in telescoped["cumulative"]] == [
            v.hex() for v in tr.cumulative_general[tau - 1].tolist()]
    else:
        assert telescoped == {"ok": None, "status": "not_applicable"}
    for name, shape in (("cumulative_reward", (T,)), ("cumulative_general", (T, m)),
                        ("dual_l1", (T + 1,))):
        value = getattr(tr, name)
        assert getattr(tr, name) is value and not value.flags.writeable, name
        assert value.shape == shape and value.dtype == np.float64, name


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("record", ["sweep", "oracle", "gen", "audit"])
def test_record_bytes_pinned(tmp_path, capsys, monkeypatch, record):
    """The sweep CSV, fit and cells, the oracle reports, every generator's
    file at default parameters and an audit JSON, byte for byte."""
    monkeypatch.chdir(tmp_path)  # the audit JSON names its trace's path
    digests = {}
    if record == "sweep":
        code, _ = run_cli(capsys, "sweep", "--generator", "random_model", "--param", "S=40",
                          "--T", "100,200", "--seeds", "0:2", "--benchmark", "lp",
                          "--out", "s", "--name", "sw")
        assert code == 0
        digests = {p.name: _sha256(p.read_bytes()) for p in (tmp_path / "s").iterdir()}
    elif record == "oracle":
        for name, argv in {
            "instance": ("--generator", "random", "--param", "T=6", "--param", "K=3"),
            "model": ("--generator", "random_model", "--T", "20", "--num-samples", "10"),
            "model_no_T": ("--generator", "pacing"),
        }.items():
            code, out = run_cli(capsys, "oracle", *argv)
            assert code == 0
            digests[name] = _sha256(out)
    elif record == "gen":
        for name in sorted(ob.environments.GENERATORS):
            assert run_cli(capsys, "gen", "--generator", name, "--out", f"{name}.json")[0] == 0
            digests[f"{name}.json"] = _sha256((tmp_path / f"{name}.json").read_bytes())
    else:
        assert run_cli(capsys, *cli_run_args("r", seeds="7"))[0] == 0
        args = ("audit", os.path.join("r", "exp_7.csv"), "--pairs", "10", "--out", "audit.json")
        assert run_cli(capsys, *args)[0] == 0
        digests["audit.json"] = _sha256((tmp_path / "audit.json").read_bytes())
    prefix = f"{record}/"
    assert {prefix + k: v for k, v in digests.items()} == {
        k: v for k, v in RUN_CELL_SHA256.items() if k.startswith(prefix)
    }


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
    def test_repeated_parameter_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, text = run_cli(capsys, command, "--generator", "random", "--param", "T=5",
                             "--param", " T=6", "--out", str(out))
        assert code == 2
        assert json.loads(text)["error"] == {
            "type": "CliError", "message": "--param 'T' is given more than once", "key": "T",
        }
        assert not out.exists()

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

    @pytest.mark.parametrize("generator, key, value, kind", [
        ("random", "T", "abc", "int"),
        ("random_model", "S", "2.5", "int"),
        ("pacing", "beta", "x", "float"),
    ])
    def test_unparsable_generator_parameter_named(self, tmp_path, capsys, generator, key,
                                                  value, kind):
        out = tmp_path / "x.json"
        code, text = run_cli(capsys, "gen", "--generator", generator, "--param",
                             f"{key}={value}", "--out", str(out))
        assert code == 2
        assert json.loads(text)["error"] == {
            "type": "ValidationError",
            "message": f"generator {generator!r} parameter {key!r}: {value!r} is not of "
                       f"type {kind}",
        }
        assert not out.exists()


def test_internal_error_exits_3_with_the_traceback(capsys, monkeypatch):
    """main() lets an unexpected exception through; the console script
    prints its traceback and exits 3, a code no audit verdict uses."""

    def broken(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    monkeypatch.setattr(sys, "argv", ["ora-bob", "gen", "--generator", "pacing", "--out", "x"])
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main()
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.rstrip().endswith("RuntimeError: a bug")
    monkeypatch.setattr(sys, "argv", ["ora-bob", "gen"])  # a usage error stays 2
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 2


def test_tracer_layers_resolve():
    """Every (module, attribute) perfbench/tracer.py wraps exists, so a
    renamed or deleted hook fails here and not only in the benchmark."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for owner, attr, _ in tracer.LAYERS:
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"ora_bob.{module}")
        if cls:
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None)), (owner, attr)


def test_cli_import_leaves_the_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(ob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, ora_bob.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


#: Commands each probe below runs in a fresh process, in a directory that
#: holds an S = 40 model and, for the audit, two T = 8000 traces of it.
FRESH_COMMANDS = {
    "gen": ("gen", "--generator", "pacing", "--out", "pacing.json"),
    "sweep_lp": ("sweep", "--instance", "model.json", "--T", "100,200", "--seeds", "0:1",
                 "--benchmark", "lp", "--out", "out"),
    "run_T2000": ("run", "--instance", "model.json", "--T", "2000", "--seeds", "0:8",
                  "--out", "out"),
    "audit_T8000": ("audit", "traces/c_0.csv", "traces/c_1.csv", "--pairs", "200"),
}


def _fresh_command(tmp_path, capsys, argv, probe):
    """The words ``probe`` prints after it runs ``ora-bob argv`` (its
    ``sys.argv[1:]``) in a fresh process, since pytest itself may have
    loaded what the probe looks for."""
    run_cli(capsys, "gen", "--generator", "random_model", "--param", "S=40", "--param", "K=4",
            "--param", "m=2", "--param", "n=2", "--param", "seed=2",
            "--out", str(tmp_path / "model.json"))
    if argv[0] == "audit":
        assert run_cli(capsys, "run", "--instance", str(tmp_path / "model.json"), "--T", "8000",
                       "--seeds", "0:2", "--out", str(tmp_path / "traces"), "--name", "c")[0] == 0
    src = os.path.dirname(os.path.dirname(ob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        *((argv, False) for argv in FRESH_COMMANDS.values()),
        (("run", "--instance", "model.json", "--T", "200", "--seeds", "0:50", "--out", "out"),
         False),
        (("gen", "--generator", "random_model", "--param", "S=4000", "--param", "K=4",
          "--param", "m=2", "--param", "n=2", "--out", "model4000.json"), True),
    ],
    ids=[*FRESH_COMMANDS, "run_50_cells", "gen_S4000"],
)
def test_openssl_loaded_only_past_the_hash_threshold(tmp_path, capsys, argv, loaded):
    """A command none of whose hashes reaches OPENSSL_HASH_BYTES never loads
    hashlib's OpenSSL module, however much it hashes in all; one hash that
    reaches it loads it.  An instance hashes its distinct rows once, so
    eight S = 40 cells at T = 2000 hash about 155 KB, an audit of two
    T = 8000 traces about 72 KB and fifty cells at T = 200 about 714 KB,
    each cell below 20 KB; an S = 4000 model is one text of about 1.4 MB."""
    probe = ("import sys; from ora_bob import cli, serialization as ser; "
             "sizes, sha256 = [0], ser._sha256; "
             "ser._sha256 = lambda nbytes: sizes.append(nbytes) or sha256(nbytes); "
             "before = '_hashlib' in sys.modules; code = cli.main(sys.argv[1:]); "
             "print(code, max(sizes) >= ser.OPENSSL_HASH_BYTES, before, "
             "'_hashlib' in sys.modules)")
    code, past, before, after = _fresh_command(tmp_path, capsys, argv, probe)[-4:]
    assert (code, past) == ("0", str(loaded))
    if before == "True" and not loaded:
        pytest.skip("this numpy loads OpenSSL on import (numpy.random -> secrets -> hmac)")
    assert after == str(loaded)


@pytest.mark.parametrize("argv", FRESH_COMMANDS.values(), ids=list(FRESH_COMMANDS))
def test_no_command_loads_fractions_or_decimal(tmp_path, capsys, argv):
    """The budget gate and audit count in integers, so no command imports
    fractions (which imports decimal); together they would add about
    0.4 MiB to the command's peak memory."""
    probe = ("import sys, numpy; names = {'fractions', 'decimal'}; "
             "before = bool(names & set(sys.modules)); from ora_bob import cli; "
             "code = cli.main(sys.argv[1:]); "
             "print(code, before, ','.join(sorted(names & set(sys.modules))) or '-')")
    code, before, loaded = _fresh_command(tmp_path, capsys, argv, probe)[-3:]
    assert code == "0"
    if before == "True":
        pytest.skip("importing this numpy alone loads fractions or decimal")
    assert loaded == "-"


#: Two files as the schema_version 1 program wrote them: the instance_hash
#: each recorded and the file's SHA-256.  They differ from this version's
#: only in schema_version and instance_hash.
SCHEMA_1_FILES = {
    "pacing_0.csv": ("sha256:8c59d82eba98a1b2725af61db97b4f09bbba699785eaaa5845072da65519476c",
                     "e4d49d459750a8e5fb50f02d86062c6aa235632bb80dfd9caea274e0307345b7"),
    "pc_T100_0.json": ("sha256:5337a186de2139b988ea97ae43d30d1ac8e7700926f7a48d9f1bed41b83b686e",
                       "e4e0211f4e302980af99c59d0b57e67d97919745ef0d1e140fef8c20dafff328"),
}


@pytest.mark.parametrize("command", ["audit", "aggregate"])
def test_schema_1_files_refused_by_name(tmp_path, capsys, command):
    """A trace (audit) or a sweep cell (sweep --aggregate-only) of
    schema_version 1 exits 2 with an error that names the instance-hash
    change and asks for a re-run, not an instance hash mismatch."""
    out = str(tmp_path)
    if command == "audit":
        argv = ("run", "--generator", "pacing", "--seeds", "0", "--out", out, "--name", "pacing")
        path = tmp_path / "pacing_0.csv"
        then = ("audit", str(path))
    else:
        argv = ("sweep", "--generator", "pacing", "--T", "100", "--seeds", "0", "--out", out,
                "--name", "pc")
        path = tmp_path / "pc_T100_0.json"
        then = (*argv, "--aggregate-only")
    assert run_cli(capsys, *argv)[0] == 0
    v1_hash, v1_sha256 = SCHEMA_1_FILES[path.name]
    text = re.sub(rf'(schema_version"?(?:=|: ?)){traceio.SCHEMA_VERSION}\b', r"\g<1>1",
                  path.read_bytes().decode("utf-8"))
    text = re.sub(r'(instance_hash"?(?:=|: "))sha256:[0-9a-f]{64}', rf"\g<1>{v1_hash}", text)
    assert _sha256(text) == v1_sha256  # the file the version-1 program wrote
    path.write_bytes(text.encode("utf-8"))
    code, text = run_cli(capsys, *then)
    assert code == 2
    assert json.loads(text)["error"] == {
        "type": "CliError", "path": str(path),
        "message": f"{path}: schema_version 1 predates the instance-hash change of "
                   "schema_version 2; re-run it to audit or aggregate it",
    }


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

    def test_traces_of_different_budgets_replay_in_one_call(self, tmp_path, capsys, monkeypatch):
        traces = []
        for beta in ("0.25", "0.05"):
            run_args = ("--generator", "pacing", "--param", f"beta={beta}", "--T", "200")
            assert run_cli(capsys, "run", *run_args, "--out", str(tmp_path), "--name", beta)[0] == 0
            traces.append(str(tmp_path / f"{beta}_0.csv"))
        calls = []
        real = cli.run_lanes
        monkeypatch.setattr(cli, "run_lanes", lambda inst, config: calls.append(len(inst))
                            or real(inst, config))
        code, out = run_cli(capsys, "audit", *traces, "--pairs", "5")
        assert code == 0 and calls == [2]
        reports = json.loads(out)["traces"]
        for trace, report in zip(traces, reports):
            code, alone = run_cli(capsys, "audit", trace, "--pairs", "5")
            assert code == 0
            assert json.dumps(report, indent=1) == json.dumps(
                json.loads(alone)["traces"][0], indent=1
            )

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

    def test_budget_met_exactly_is_feasible(self, tmp_path, capsys):
        """Twenty plays consuming 0.1 and one consuming 1.0 meet the cap
        30 * 0.1 exactly, though the float total 3.0000000000000004 is above
        the float cap fl(30 * 0.1) = 3.0; the audit reports the exact total
        rounded once, 3.0."""
        h = np.array([0.1] * 20 + [1.0] * 10)
        rows = (np.tile([0.0, 1.0], (30, 1)), np.zeros((30, 0, 2)),
                np.stack([np.zeros(30), h], axis=1)[:, None, :])
        inst = ob.Instance(ob.ActionSet(2, 0), ob.BudgetSpec(30, [0.1]), rows, np.arange(30))
        ob.save_instance(inst, tmp_path / "cap.json")
        code, _ = run_cli(capsys, "run", "--instance", str(tmp_path / "cap.json"),
                          "--eta", "1e-6", "--out", str(tmp_path), "--name", "cap")
        assert code == 0
        summary = json.loads((tmp_path / "cap_0.json").read_text())["summary"]
        assert summary["tau"] == 21 and summary["budget_feasible"] is True
        code, out = run_cli(capsys, "audit", str(tmp_path / "cap_0.csv"), "--pairs", "5")
        assert code == 0
        assert json.loads(out)["traces"][0]["audits"]["budget_exactness"] == {
            "ok": True, "final": [3.0], "limits": [3.0]
        }

    def test_schema_version_mismatch_refused(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path, capsys)
        version = f"# schema_version={traceio.SCHEMA_VERSION}\n"
        assert version in trace.read_text()
        text = trace.read_text().replace(version, "# schema_version=99\n")
        trace.write_text(text)
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        assert "schema_version" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"config": {"T": 7, "eta": 0.5, "seed": 99}}, ["T", "eta", "seed"]),
            ({"config": {"delta": 0.1}}, ["delta"]),
            ({"K": "4"}, ["K"]),
            ({"m": "1"}, ["m"]),
            ({"n": "1"}, ["n"]),
            ({"eta": "0.5"}, ["eta"]),
            ({"delta": "0.050"}, ["delta"]),
            ({"seed": "8"}, ["seed"]),
            ({"rng": "mt19937"}, ["rng"]),
        ],
    )
    def test_header_contradicting_its_config_exits_2(self, tmp_path, capsys, edit, named):
        """A header line that the config or the source contradicts, or an
        ``rng`` other than the one that drew the run, refuses the trace and
        names the lines."""
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            key, _, value = line[2:].partition("=")
            if line.startswith("# ") and key in edit:
                if key == "config":
                    value = json.dumps({**json.loads(value), **edit[key]}, sort_keys=True,
                                       separators=(",", ":"))
                else:
                    value = edit[key]
                lines[i] = f"# {key}={value}"
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "TraceFormatError"
        assert err["message"].startswith(f"{trace}: header contradicts its config or source: ")
        assert re.findall(r"(\w+)=\S+ \(expected ", err["message"]) == named

    @pytest.mark.parametrize(
        "key, noun",
        [("schema_version", "an integer"), ("T", "an integer"), ("seed", "an integer"),
         ("eta", "a number"), ("delta", "a number")],
    )
    def test_unparsable_header_value_names_its_trace(self, tmp_path, capsys, key, noun):
        trace = self.make_trace(tmp_path, capsys)
        lines = trace.read_text().splitlines()
        lines = [f"# {key}=zero" if l.startswith(f"# {key}=") else l for l in lines]
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "TraceFormatError", "message": f"{trace}: header {key} 'zero' is not {noun}"
        }

    @pytest.mark.parametrize("key", REQUIRED_HEADER_KEYS)
    def test_missing_header_line_exits_2(self, tmp_path, capsys, key):
        trace = self.make_trace(tmp_path, capsys)
        lines = [l for l in trace.read_text().splitlines() if not l.startswith(f"# {key}=")]
        trace.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "audit", str(trace))
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "TraceFormatError", "message": f"{trace}: trace header lacks {key}"
        }

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

    def test_audit_memory_bounded_by_one_batch(self, tmp_path, capsys):
        """The audit holds the traces of one lockstep batch at a time, so
        auditing 64 T = 2000 traces (four full batches) peaks within 1 MiB
        of auditing 16 (one batch)."""
        code, _ = run_cli(capsys, "run", "--generator", "random_model", "--T", "2000",
                          "--seeds", "0:64", "--out", str(tmp_path), "--name", "s")
        assert code == 0
        peaks = []
        for count in (16, 64):
            traces = [str(tmp_path / f"s_{seed}.csv") for seed in range(count)]
            tracemalloc.start()
            try:
                code = cli.main(["audit", *traces, "--pairs", "10",
                                 "--out", str(tmp_path / "audit.json")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(json.loads((tmp_path / "audit.json").read_text())["traces"]) == count
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks
