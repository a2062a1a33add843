"""Domain types for allocation instances, budgets, unified constraints and runs.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads.  Constructors enforce structural invariants
(shapes, positivity of budgets); value-level invariants such as entry ranges
and the void-column property are checked by ``validate()``, which reports
every violation instead of aborting, so malformed files can be loaded and
diagnosed.

Round inputs exist only as (F, G, H) row stacks: rewards (S, K), general
costs (S, m, K) and consumptions (S, n, K).  :class:`RowStore` owns them
and checks their shapes once per stack at construction.  The two row
stores are an :class:`Instance`, the rows plus a (T,) row index (its rows
are exactly those the index uses, and its per-round stacks are gathers
over the rows), and a :class:`StochasticModel`, the support rows plus
their probabilities.  Validation checks each row once and reports its
issues at every round that uses it.

Unified constraints and duals exist only as arrays: the unified matrices
are :func:`unified_rows` of the rows (cost rows over consumption rows
shifted down by the per-round budget), and a :class:`Trajectory` holds a
run's duals as one (T+1, M) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import numpy as np


class ValidationError(ValueError):
    """Structural problem detected at construction time."""


class InstanceValidationError(ValueError):
    """Raised when an operation requires a valid instance and got issues."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        head = "; ".join(str(i) for i in report.issues[:3])
        more = "" if len(report.issues) <= 3 else f" (+{len(report.issues) - 3} more)"
        super().__init__(f"invalid instance: {head}{more}")


def _readonly(a: np.ndarray) -> np.ndarray:
    return _frozen(np.array(a, dtype=np.float64, copy=True, order="C"))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ActionSet:
    """A finite action space with a designated zero-cost void action."""

    count: int
    void_index: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"action count must be >= 1, got {self.count}")
        if not 0 <= self.void_index < self.count:
            raise ValidationError(
                f"void_index {self.void_index} outside [0, {self.count})"
            )


@dataclass(frozen=True)
class BudgetSpec:
    """Horizon T and per-round budget vector; the hard caps are beta_j * T."""

    horizon: int
    per_round_budget: np.ndarray

    def __post_init__(self):
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ValidationError(f"horizon must be a positive integer, got {self.horizon!r}")
        b = np.asarray(self.per_round_budget, dtype=np.float64).reshape(-1)
        if b.size and (not np.all(np.isfinite(b)) or np.any(b <= 0.0)):
            raise ValidationError("per-round budgets must be finite and > 0")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "per_round_budget", _readonly(b))

    @property
    def num_resources(self) -> int:
        return self.per_round_budget.shape[0]

    @property
    def limits(self) -> np.ndarray:
        """Total budgets B_j = beta_j * T."""
        return self.per_round_budget * self.horizon


@dataclass(frozen=True)
class Trajectory:
    """Column-oriented record of a full run.

    ``duals`` holds lambda_1 .. lambda_{T+1} (shape (T+1, M)); row t-1 is the
    dual state the round-t decision saw.  ``unified_values`` row t-1 is the
    unified constraint vector of the action actually played in round t, i.e.
    the gradient fed to the dual update.
    """

    actions: np.ndarray
    candidates: np.ndarray
    rewards: np.ndarray
    unified_values: np.ndarray
    duals: np.ndarray
    gate_open: np.ndarray
    cumulative_consumption: np.ndarray
    stopping_time: int
    num_general: int
    num_resources: int
    eta: float
    delta: float

    def __post_init__(self):
        t = self.actions.shape[0]
        if self.duals.shape != (t + 1, self.num_general + self.num_resources):
            raise ValidationError(
                f"duals shape {self.duals.shape} inconsistent with T={t}, "
                f"M={self.num_general + self.num_resources}"
            )
        if not 0 <= self.stopping_time <= t:
            raise ValidationError(f"stopping_time {self.stopping_time} outside [0, {t}]")
        for name in ("rewards", "unified_values", "duals", "cumulative_consumption"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        for name in ("actions", "candidates"):
            a = np.asarray(getattr(self, name), dtype=np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        g = np.asarray(self.gate_open, dtype=bool)
        g.setflags(write=False)
        object.__setattr__(self, "gate_open", g)

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.num_general + self.num_resources


@dataclass(frozen=True, eq=False)
class RowStore:
    """Input rows stored as ``rows``: the read-only (F (S, K), G (S, m, K),
    H (S, n, K)) stacks of S >= 1 rows of one shape, under a ``budget``.

    F holds each row's rewards, G its general costs and H its consumptions.
    The stacks are copied read-only and their shapes checked once, at
    construction, against each other, K against ``actions.count`` and n
    against ``budget.num_resources``; a breach raises ValidationError
    naming the stack and the axis.
    """

    actions: ActionSet
    budget: BudgetSpec
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        f, g, h = rows = tuple(map(_readonly, self.rows))
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValidationError(
                f"rewards must be a 2-D (S, K) stack with S >= 1, got shape {f.shape}"
            )
        for name, a, axis in (("general_costs", g, "m"), ("consumptions", h, "n")):
            if a.ndim != 3:
                raise ValidationError(
                    f"{name} must be a 3-D (S, {axis}, K) stack, got shape {a.shape}"
                )
            if a.shape[0] != f.shape[0]:
                raise ValidationError(
                    f"{name} has {a.shape[0]} rows (axis 0), rewards has {f.shape[0]}"
                )
            if a.shape[2] != f.shape[1]:
                raise ValidationError(
                    f"{name} has {a.shape[2]} action columns (axis 2), "
                    f"rewards has {f.shape[1]}"
                )
        if f.shape[1] != self.actions.count:
            raise ValidationError(
                f"rewards has K={f.shape[1]} action columns (axis 1), "
                f"the action set has K={self.actions.count}"
            )
        if h.shape[1] != self.budget.num_resources:
            raise ValidationError(
                f"consumptions has n={h.shape[1]} resource rows (axis 1), "
                f"the budget has n={self.budget.num_resources}"
            )
        object.__setattr__(self, "rows", rows)

    @property
    def num_general(self) -> int:
        return self.rows[1].shape[1]

    @property
    def num_resources(self) -> int:
        return self.budget.num_resources

    @property
    def num_constraints(self) -> int:
        return self.num_general + self.num_resources

    @cached_property
    def unified_rows(self) -> np.ndarray:
        """(S, M, K) unified constraint matrices of the rows."""
        return _frozen(unified_rows(*self.rows[1:], self.budget.per_round_budget))


@dataclass(frozen=True, eq=False)
class Instance(RowStore):
    """A fully specified adversarial run: action set, budget, and the input
    rows of every round.

    Round t's inputs are row ``index[t]`` of the stacks ``rows``; ``index``
    is read-only, (T,) int64.  Only the rows some round uses are kept, in
    row order (a sampled instance is its model's drawn support rows plus
    the draws).  The per-round stacks are gathers over the rows, never
    cached.
    """

    index: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        index = np.array(self.index, dtype=np.int64)
        if index.shape != (self.budget.horizon,):
            raise ValidationError(
                f"{index.size} rounds provided for horizon T={self.budget.horizon}"
            )
        rows, size = self.rows, self.rows[0].shape[0]
        if index.min() < 0 or index.max() >= size:
            raise ValidationError(f"round index outside the {size} rows")
        used = np.flatnonzero(np.bincount(index, minlength=size))
        if used.size < size:
            position = np.zeros(size, dtype=np.int64)
            position[used] = np.arange(used.size)
            rows, index = tuple(_frozen(r[used]) for r in rows), position[index]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "index", _frozen(index))

    @property
    def horizon(self) -> int:
        return self.budget.horizon

    @property
    def num_actions(self) -> int:
        return self.actions.count

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        return _frozen(rows[self.index])

    rewards_stack = property(lambda self: self._gather(self.rows[0]), doc="(T, K) rewards.")
    general_stack = property(
        lambda self: self._gather(self.rows[1]), doc="(T, m, K) general costs."
    )
    consumption_stack = property(
        lambda self: self._gather(self.rows[2]), doc="(T, n, K) consumptions."
    )
    unified_stack = property(
        lambda self: self._gather(self.unified_rows), doc="(T, M, K) unified matrices."
    )

    def validate(self) -> "ValidationReport":
        """Every budget-gate, range and void-column issue of the rounds; each
        row is checked once."""
        return pool_issues(ValidationReport(), self.budget, self.rows, self.index, self.actions)


PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StochasticModel(RowStore):
    """Finite-support i.i.d. input distribution with a default budget.

    ``budget.horizon`` is the default sampling horizon; sampling at another T
    keeps the per-round budget vector and rescales the caps B_j = beta_j * T.
    Support row s of the (F, G, H) stacks ``rows`` is drawn with probability
    ``probs[s]``.
    """

    probs: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        p = np.array(self.probs, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.support_size:
            raise ValidationError(
                f"{p.shape[0]} probabilities for {self.support_size} support tuples"
            )
        if not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite")
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probabilities must be >= 0 and sum to 1 +/- {PROB_SUM_TOL}"
            )
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def support_size(self) -> int:
        return self.rows[0].shape[0]

    def validate(self) -> "ValidationReport":
        """Range/void checks on the support plus the budget-gate check at the
        stored sampling horizon."""
        return pool_issues(
            ValidationReport(), self.budget, self.rows, np.arange(self.support_size),
            self.actions,
        )


def unified_rows(general: np.ndarray, consumption: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(U, M, K) unified matrices: the (U, m, K) costs over the (U, n, K)
    consumptions shifted down by the (n,) beta."""
    return np.concatenate([general, consumption - beta[None, :, None]], axis=1)


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant; ``round`` is 1-based, 0 for instance-level."""

    round: int
    field: str
    coordinate: tuple
    message: str

    def __str__(self):
        where = f"round {self.round}" if self.round else "instance"
        return f"{where}: {self.field}{list(self.coordinate)}: {self.message}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, round_: int, field_: str, coordinate: tuple, message: str):
        self.issues.append(ValidationIssue(round_, field_, tuple(coordinate), message))

    def raise_if_invalid(self):
        if not self.ok:
            raise InstanceValidationError(self)


def budget_gate_issues(report: ValidationReport, budget: BudgetSpec):
    """Flag budgets whose gate is closed from round 1 (beta_j*T < 1) and warn
    about budgets that can never bind (beta_j > 1)."""
    gate_margin = budget.limits - 1.0
    for j in np.argwhere(gate_margin < 0.0).reshape(-1):
        j = int(j)
        report.add(
            0,
            "budget",
            (j,),
            f"beta[{j}]*T = {float(budget.limits[j])!r} < 1: budget gate closed at round 1",
        )
    for j in np.argwhere(budget.per_round_budget > 1.0).reshape(-1):
        j = int(j)
        report.warnings.append(
            f"beta[{j}] = {float(budget.per_round_budget[j])!r} > 1: budget never binding"
        )


def pool_issues(report, budget, rows, index, actions) -> ValidationReport:
    """``report`` with the budget-gate issues, then the range and
    void-column checks of the rounds whose inputs are row ``index[t]`` of
    the (F, G, H) stacks ``rows``, each row used by some round.  Every row
    is checked once and its issues are reported at each round that uses it,
    in the order a round-by-round check finds them."""
    budget_gate_issues(report, budget)
    f, g, h = rows
    v = actions.void_index
    _range_issues(report, index, "reward", f, 0.0, 1.0)
    _range_issues(report, index, "general_cost", g, -1.0, 1.0)
    _range_issues(report, index, "consumption", h, 0.0, 1.0)
    _void_issues(report, index, "reward", f[:, v], v)
    _void_issues(report, index, "general_cost", g[:, :, v], v)
    _void_issues(report, index, "consumption", h[:, :, v], v)
    return report


def _bad_entries(index, bad):
    """(round, coordinate, row) of every True entry of the per-row mask
    ``bad`` at every round, in the order np.argwhere visits the
    per-round stack ``bad[index]``."""
    if not bad.any():
        return
    hit = bad.reshape(bad.shape[0], -1).any(axis=1)
    for t in np.flatnonzero(hit[index]):
        row = index[t]
        for coord in np.argwhere(bad[row]):
            yield int(t) + 1, tuple(int(x) for x in coord), row


def _range_issues(report, index, name, stacked, lo, hi):
    ok = (stacked >= lo) & (stacked <= hi)  # NaN compares false and is flagged
    for t, c, row in _bad_entries(index, ~ok):
        report.add(t, name, c, f"value {float(stacked[row][c])!r} outside [{lo}, {hi}]")


def _void_issues(report, index, name, void_values, void_index):
    for t, c, row in _bad_entries(index, void_values != 0.0):
        report.add(
            t, "void_column", c + (void_index,),
            f"void-column {name} is {float(void_values[row][c])!r}, expected 0",
        )
