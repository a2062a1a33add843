"""Acceptance suite: one test per criterion, sharing the heavy run batches.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts at the tolerance stated for its criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import ora_bob as ob
from ora_bob import rng
from ora_bob.dual_ogd import (
    AUDIT_SLACK,
    DRIFT_SLACK,
    OgdConfig,
    dual_drift,
    interval_regret_audit,
    learning_rate,
    sample_comparator_pairs,
)
from ora_bob.metrics import theorem_bounds, violation
from ora_bob.oracles import (
    alpha,
    opt_bruteforce,
    opt_lp_relax,
    slater_adv,
    slater_stoc,
)
from rowstacks import consumption_stack, rewards_stack, slater_adv_bruteforce, unified_stack

BATCH_SALT = 0xACCE97
BATCH_COUNT = 1000
BATCH_T = 2000
BATCH_DELTA = 0.01


def exact_budget_check(inst, tr, exact_all=False) -> bool:
    """Float comparison plus exact-rational re-verification near the cap."""
    limits = inst.budget.limits
    final = tr.cumulative_consumption[-1]
    if not np.all(final <= limits):
        return False
    margins = limits - final
    check = (
        range(inst.num_resources)
        if exact_all
        else np.nonzero(margins < 1e-6)[0]
    )
    T = inst.horizon
    for j in check:
        j = int(j)
        h_seq = consumption_stack(inst)[np.arange(T), j, tr.actions]
        total = sum((Fraction(float(v)) for v in h_seq), Fraction(0))
        if total > Fraction(float(inst.budget.per_round_budget[j])) * T:
            return False
    return True


@pytest.fixture(scope="module")
def batch():
    """1,000 seeded random instances (T=2000, K<=6, m<=3, n<=3) run once.

    m and n are drawn in 1..3 so the budget, telescoping and dual-norm
    criteria are non-vacuous on every run.  The instances of one (K, m, n)
    share a lane_key and a config, so each such group of 22-23 plays as the
    lanes of one run_lanes call, each lane under its own budget.
    """
    t0 = time.perf_counter()
    rows = [None] * BATCH_COUNT
    kept = [None] * 20
    groups = {}
    for i in range(BATCH_COUNT):
        K = 2 + (i % 5)  # 2..6
        m = 1 + (i % 3)  # 1..3
        n = 1 + ((i // 3) % 3)  # 1..3
        groups.setdefault((K, m, n), []).append(i)
    for (K, m, n), group in groups.items():
        M = m + n
        insts = [ob.random_instance(rng.derive_seed(BATCH_SALT, i), T=BATCH_T, K=K, m=m, n=n,
                                    feasibility_margin=0.2) for i in group]
        config = OgdConfig(learning_rate(BATCH_T, M, BATCH_DELTA), BATCH_DELTA)
        for i, inst, tr in zip(group, insts, ob.run_lanes(insts, config)):
            rho = slater_adv(inst)
            tau = tr.stopping_time
            sums = tr.unified_values[:tau, :m].sum(axis=0)
            caps = tr.duals[tau, :m] / tr.eta
            rows[i] = dict(
                budget_ok=exact_budget_check(inst, tr, exact_all=(i < 25)),
                drift=dual_drift(tr)["max_drift"],
                drift_bound=tr.eta * M,
                telescope_ok=bool(np.all(sums <= caps + AUDIT_SLACK)),
                rho=rho,
                max_dual_l1=float(np.abs(tr.duals[:-1]).sum(axis=1).max()),
                dual_bound=14.0 * M / rho,
            )
            if i < 20:
                kept[i] = tr
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "trajectories": kept, "elapsed": elapsed}


def test_c01_hard_budget_feasibility(batch, criterion):
    rows = batch["rows"]
    ok = sum(r["budget_ok"] for r in rows)
    runtime_ok = batch["elapsed"] <= 120.0
    criterion(
        "01 hard budget feasibility",
        ok == len(rows) and runtime_ok,
        f"{ok}/{len(rows)} runs exact, batch {batch['elapsed']:.1f}s (limit 120s)",
    )


def test_c02_dual_drift(batch, criterion):
    rows = batch["rows"]
    ok = sum(r["drift"] <= r["drift_bound"] + DRIFT_SLACK for r in rows)
    criterion(
        "02 per-step dual drift <= eta*M",
        ok == len(rows),
        f"{ok}/{len(rows)} runs within eta*M + 1e-12",
    )


def test_c03_telescoped_violation(batch, criterion):
    rows = batch["rows"]
    ok = sum(r["telescope_ok"] for r in rows)
    criterion(
        "03 telescoped violation <= lambda/eta",
        ok == len(rows),
        f"{ok}/{len(rows)} runs within 1e-9",
    )


def test_c04_dual_norm_bound(batch, criterion):
    rows = batch["rows"]
    assert all(r["rho"] >= 0.1 for r in rows), "precondition: oracle rho >= 0.1"
    ok = sum(r["max_dual_l1"] <= r["dual_bound"] for r in rows)
    rate = ok / len(rows)
    criterion(
        "04 dual-norm bound 14M/rho",
        rate >= 0.99,
        f"pass rate {rate:.3f} (threshold 0.99, delta={BATCH_DELTA})",
    )


def test_c05_interval_regret(batch, criterion):
    trajectories = batch["trajectories"][:20]
    assert len(trajectories) == 20
    failures = 0
    total = 0
    for k, tr in enumerate(trajectories):
        pairs = sample_comparator_pairs(tr, 100, seed=rng.derive_seed(0xC5, k))
        for mu, t1, t2 in pairs:
            total += 1
            if not interval_regret_audit(tr, mu, t1, t2)["holds"]:
                failures += 1
    criterion(
        "05 interval-regret inequality",
        failures == 0 and total == 2000,
        f"{total - failures}/{total} comparator/interval pairs hold within 1e-9",
    )


@pytest.fixture(scope="module")
def violation_sweep():
    model = ob.make_push_pull_model()
    rho = slater_stoc(model)
    t0 = time.perf_counter()
    data = {}
    bound_failures = 0
    for T in (500, 2000, 8000, 32000):
        M = model.num_constraints
        eta = learning_rate(T, M, 0.05)
        bound = theorem_bounds(T, M, rho, 0.05)["violation"]
        vs = []
        # the 30 samples of one T share a lane_key and play as the lanes
        # of one run_lanes call
        insts = [ob.sample_instance(model, T, rng.derive_seed(0x6E60, T * 1000 + s))
                 for s in range(30)]
        for tr in ob.run_lanes(insts, OgdConfig(eta, 0.05)):
            v = violation(tr)
            vs.append(v)
            if not (v <= bound + AUDIT_SLACK and v <= tr.stopping_time):
                bound_failures += 1
        data[T] = vs
    elapsed = time.perf_counter() - t0
    return {"rho": rho, "data": data, "bound_failures": bound_failures, "elapsed": elapsed}


def test_c06_violation_scaling(violation_sweep, criterion):
    assert violation_sweep["rho"] >= 0.2, "precondition: model rho >= 0.2"
    data = violation_sweep["data"]
    ts = sorted(data)
    means = [float(np.mean(np.maximum(data[T], 0.0))) for T in ts]
    slope = float(np.polyfit(np.log(ts), np.log(means), 1)[0])
    ok = (
        slope <= 0.6
        and violation_sweep["bound_failures"] == 0
        and violation_sweep["elapsed"] <= 600.0
    )
    criterion(
        "06 violation scaling",
        ok,
        f"log-log slope {slope:.3f} (limit 0.6), bound failures "
        f"{violation_sweep['bound_failures']}, sweep {violation_sweep['elapsed']:.1f}s",
    )


def test_c07_stochastic_regret(criterion):
    # tiny regime: exact OPT by full enumeration per sampled sequence
    model = ob.random_model(0x77, S=3, K=3, m=1, n=1, feasibility_margin=0.3, horizon=6)
    rho = slater_stoc(model)
    beta_min = float(model.budget.per_round_budget.min())
    T_tiny = 6
    eta = learning_rate(T_tiny, model.num_constraints, 0.05)
    regrets = []
    insts = [ob.sample_instance(model, T_tiny, rng.derive_seed(0x71, s)) for s in range(200)]
    for inst, tr in zip(insts, ob.run_lanes(insts, OgdConfig(eta, 0.05))):
        regrets.append(opt_bruteforce(inst).opt_value - float(tr.rewards.sum()))
    bound = theorem_bounds(T_tiny, model.num_constraints, rho, 0.05, beta_min)["regret"]
    tiny_ok = float(np.mean(regrets)) <= bound

    # moderate regime: LP benchmark, normalized regret decreasing in T
    pacing = ob.make_pacing_model()
    means = []
    for T in (500, 2000, 8000):
        eta = learning_rate(T, pacing.num_constraints, 0.05)
        vals = []
        insts = [ob.sample_instance(pacing, T, rng.derive_seed(0x72, T * 100 + s))
                 for s in range(30)]
        for inst, tr in zip(insts, ob.run_lanes(insts, OgdConfig(eta, 0.05))):
            lp = opt_lp_relax(inst).opt_value
            vals.append((lp - float(tr.rewards.sum())) / T)
        means.append(float(np.mean(vals)))
    inversions = sum(1 for a, b in zip(means, means[1:]) if not b < a)
    moderate_ok = inversions <= 1
    criterion(
        "07 stochastic regret",
        tiny_ok and moderate_ok,
        f"tiny mean {float(np.mean(regrets)):.3f} <= bound {bound:.1f}; "
        f"moderate means {['%.4f' % v for v in means]} ({inversions} inversions)",
    )


def test_c08_adversarial_alpha_regret(criterion, c08_lp_solves):
    failures = 0
    worst_gap = -np.inf
    for solved in c08_lp_solves:
        inst = solved.instance
        rho = slater_adv(inst)
        assert rho >= 0.2
        M = inst.num_constraints
        tr = ob.run(inst, OgdConfig(learning_rate(400, M, 0.05), 0.05))
        lp = solved.report.opt_value
        a_reg = alpha(rho) * lp - float(tr.rewards.sum())
        bound = theorem_bounds(
            400, M, rho, 0.05, float(inst.budget.per_round_budget.min())
        )["regret"]
        worst_gap = max(worst_gap, a_reg - bound)
        if a_reg > bound:
            failures += 1
    criterion(
        "08 adversarial alpha-regret",
        failures == 0,
        f"50/50 within the closed form (worst margin {worst_gap:.1f})",
    )


def test_c09_oracle_cross_validation(criterion):
    slater_ok = 0
    for s in range(50):
        inst = ob.random_instance(
            rng.derive_seed(0x99, s), T=7, K=4, m=2, n=1, feasibility_margin=0.2
        )
        if slater_adv(inst) == slater_adv_bruteforce(inst):
            slater_ok += 1
    sandwich_ok = 0
    for s in range(50):
        inst = ob.random_instance(
            rng.derive_seed(0x9A, s), T=4, K=3, m=2, n=1, feasibility_margin=0.25
        )
        bf = opt_bruteforce(inst).opt_value
        lp = opt_lp_relax(inst).opt_value
        if lp >= bf - 1e-7 * max(1.0, abs(bf)):
            sandwich_ok += 1
    criterion(
        "09 oracle cross-validation",
        slater_ok == 50 and sandwich_ok == 50,
        f"slater exact {slater_ok}/50, LP>=BF {sandwich_ok}/50",
    )


def test_c10_example1_fixture(criterion):
    rho, eps = 0.1, 0.2
    fx = ob.make_example1_instance(rho, eps, horizon=20)
    lam = np.array([20.0, 20.0])
    bud = ob.sample_instance(fx.budget_only, 20, 0)
    gen = ob.sample_instance(fx.general, 20, 0)
    bud_values = rewards_stack(bud)[0] - ob.penalties(unified_stack(bud)[0], lam)
    gen_values = rewards_stack(gen)[0] - ob.penalties(unified_stack(gen)[0], lam)
    got = (
        float(bud_values[0]),
        float(bud_values[1]),
        float(gen_values[1]),
        float(gen_values[2]),
    )
    want = (4.0, 3.0 - 2.0 * eps / rho, 5.0, 5.0 + 1.0 / rho)
    values_ok = all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
    action = int(np.argmax(gen_values))
    criterion(
        "10 worked-example fixture",
        values_ok and action == 2,
        f"values {[f'{v:.12g}' for v in got]} vs {want}; argmax picks the swing action",
    )


def test_c11_determinism(tmp_path, criterion, capsys):
    from ora_bob import cli

    argv = [
        "run",
        "--generator",
        "example1_general",
        "--param",
        "T=200",
        "--T",
        "200",
        "--seeds",
        "7",
        "--benchmark",
        "lp",
        "--name",
        "det",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(dir_a)]) == 0
    assert cli.main(argv + ["--out", str(dir_b)]) == 0
    capsys.readouterr()
    same_csv = (dir_a / "det_7.csv").read_bytes() == (dir_b / "det_7.csv").read_bytes()
    same_json = (dir_a / "det_7.json").read_bytes() == (dir_b / "det_7.json").read_bytes()
    criterion(
        "11 determinism",
        same_csv and same_json,
        "rerun outputs are byte-identical (CSV and JSON)",
    )
