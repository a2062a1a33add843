"""Domain types for allocation instances, budgets, unified constraints and runs.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads.  Constructors enforce structural invariants
(shapes, positivity of budgets); value-level invariants such as entry ranges
and the void-column property are checked by :func:`validate_instance`, which
reports every violation instead of aborting, so malformed files can be loaded
and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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
    out = np.array(a, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


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
class InputTuple:
    """One round's fully revealed rewards, costs and consumptions.

    rewards: (K,) in [0, 1]; general_costs: (m, K) in [-1, 1];
    consumptions: (n, K) in [0, 1].  The column at the void index must be
    identically zero in all three blocks.
    """

    rewards: np.ndarray
    general_costs: np.ndarray
    consumptions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=np.float64)
        g = np.asarray(self.general_costs, dtype=np.float64)
        h = np.asarray(self.consumptions, dtype=np.float64)
        if r.ndim != 1:
            raise ValidationError(f"rewards must be 1-D, got shape {r.shape}")
        k = r.shape[0]
        if g.ndim == 1 and g.size == 0:
            g = g.reshape(0, k)
        if h.ndim == 1 and h.size == 0:
            h = h.reshape(0, k)
        if g.ndim != 2:
            raise ValidationError(f"general_costs must be 2-D, got shape {g.shape}")
        if h.ndim != 2:
            raise ValidationError(f"consumptions must be 2-D, got shape {h.shape}")
        if g.shape[1] != k:
            raise ValidationError(
                f"general_costs has {g.shape[1]} action columns, rewards has {k}"
            )
        if h.shape[1] != k:
            raise ValidationError(
                f"consumptions has {h.shape[1]} action columns, rewards has {k}"
            )
        object.__setattr__(self, "rewards", _readonly(r))
        object.__setattr__(self, "general_costs", _readonly(g))
        object.__setattr__(self, "consumptions", _readonly(h))

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_general(self) -> int:
        return self.general_costs.shape[0]

    @property
    def num_resources(self) -> int:
        return self.consumptions.shape[0]


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
class UnifiedConstraints:
    """The M x K stacked constraint matrix: cost rows verbatim, consumption
    rows shifted down by the per-round budget."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValidationError(f"unified matrix must be 2-D, got shape {m.shape}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def num_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_actions(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class DualVector:
    """Nonnegative Lagrange multipliers over the M unified constraints."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size and np.any(v < 0.0):
            raise ValidationError("dual multipliers must be componentwise >= 0")
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def zeros(cls, m: int) -> "DualVector":
        return cls(np.zeros(m))

    @property
    def num_constraints(self) -> int:
        return self.values.shape[0]

    def l1(self) -> float:
        return float(np.sum(self.values))


def unify_constraints(inp: InputTuple, budget: BudgetSpec) -> UnifiedConstraints:
    """Stack general costs over budget-shifted consumptions.

    Rows 1..m copy the cost matrix; row m+j is consumption row j minus
    beta_j in every column.
    """
    if inp.num_resources != budget.num_resources:
        raise ValidationError(
            f"consumption axis mismatch: input has n={inp.num_resources} resource "
            f"rows, budget has n={budget.num_resources}"
        )
    shifted = inp.consumptions - budget.per_round_budget[:, None]
    return UnifiedConstraints(np.concatenate([inp.general_costs, shifted], axis=0))


@dataclass(frozen=True)
class RoundRecord:
    """Everything the allocator touched in one round."""

    round: int
    action: int
    candidate_action: int
    reward: float
    unified_values: np.ndarray
    dual_before: DualVector
    gate_open: bool
    cumulative_consumption: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unified_values", _readonly(self.unified_values))
        object.__setattr__(
            self, "cumulative_consumption", _readonly(self.cumulative_consumption)
        )


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

    @property
    def final_dual(self) -> DualVector:
        return DualVector(self.duals[-1])

    def record(self, t: int) -> RoundRecord:
        """The RoundRecord for round t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise IndexError(f"round {t} outside [1, {self.horizon}]")
        i = t - 1
        return RoundRecord(
            round=t,
            action=int(self.actions[i]),
            candidate_action=int(self.candidates[i]),
            reward=float(self.rewards[i]),
            unified_values=self.unified_values[i],
            dual_before=DualVector(self.duals[i]),
            gate_open=bool(self.gate_open[i]),
            cumulative_consumption=self.cumulative_consumption[i],
        )

    @property
    def records(self) -> list[RoundRecord]:
        return [self.record(t) for t in range(1, self.horizon + 1)]


@dataclass(frozen=True)
class Instance:
    """A fully specified adversarial run: action set, budget, and one input
    tuple per round."""

    actions: ActionSet
    budget: BudgetSpec
    rounds: tuple[InputTuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if len(self.rounds) != self.budget.horizon:
            raise ValidationError(
                f"{len(self.rounds)} rounds provided for horizon T={self.budget.horizon}"
            )

    @property
    def horizon(self) -> int:
        return self.budget.horizon

    @property
    def num_actions(self) -> int:
        return self.actions.count

    @property
    def num_general(self) -> int:
        return self.rounds[0].num_general if self.rounds else 0

    @property
    def num_resources(self) -> int:
        return self.budget.num_resources

    @property
    def num_constraints(self) -> int:
        return self.num_general + self.num_resources

    @cached_property
    def rewards_stack(self) -> np.ndarray:
        """(T, K) rewards."""
        return _readonly(np.stack([r.rewards for r in self.rounds]))

    @cached_property
    def general_stack(self) -> np.ndarray:
        """(T, m, K) general costs."""
        return _readonly(np.stack([r.general_costs for r in self.rounds]))

    @cached_property
    def consumption_stack(self) -> np.ndarray:
        """(T, n, K) consumptions."""
        return _readonly(np.stack([r.consumptions for r in self.rounds]))

    @cached_property
    def unified_stack(self) -> np.ndarray:
        """(T, M, K) unified constraint matrices."""
        shifted = self.consumption_stack - self.budget.per_round_budget[None, :, None]
        return _readonly(np.concatenate([self.general_stack, shifted], axis=1))

    def unified(self, t: int) -> UnifiedConstraints:
        """Unified constraints for round t (1-based)."""
        return UnifiedConstraints(self.unified_stack[t - 1])

    def validate(self) -> "ValidationReport":
        """validate_instance on these rounds, reusing the cached stacks once
        the round shapes are known to agree."""
        report = ValidationReport()
        budget_gate_issues(report, self.budget)
        if _shape_ok(report, self.rounds, self.actions, self.num_resources):
            _value_issues(
                report, self.rewards_stack, self.general_stack,
                self.consumption_stack, self.actions.void_index,
            )
        return report


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


def validate_instance(
    rounds: Sequence[InputTuple], budget: BudgetSpec, actions: ActionSet
) -> ValidationReport:
    """Check every range, shape and void-column invariant; never aborts.

    Issues carry (round, field, coordinate) so callers can locate each
    offending entry; budget-level problems are reported with round 0.
    """
    report = ValidationReport()
    t_count = len(rounds)
    if t_count != budget.horizon:
        report.add(
            0, "shape", (), f"{t_count} rounds provided for horizon T={budget.horizon}"
        )
    if t_count == 0:
        return report
    budget_gate_issues(report, budget)
    rounds_issues(report, rounds, actions, budget.num_resources)
    return report


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
            f"beta[{j}]*T = {budget.limits[j]!r} < 1: budget gate closed at round 1",
        )
    for j in np.argwhere(budget.per_round_budget > 1.0).reshape(-1):
        j = int(j)
        report.warnings.append(
            f"beta[{j}] = {budget.per_round_budget[j]!r} > 1: budget never binding"
        )


def rounds_issues(
    report: ValidationReport,
    rounds: Sequence[InputTuple],
    actions: ActionSet,
    expected_resources: int,
):
    """Range, void-column and cross-round consistency checks on input tuples."""
    if _shape_ok(report, rounds, actions, expected_resources):
        f = np.stack([r.rewards for r in rounds])
        g = np.stack([r.general_costs for r in rounds])
        h = np.stack([r.consumptions for r in rounds])
        _value_issues(report, f, g, h, actions.void_index)


def _shape_ok(report, rounds, actions, expected_resources) -> bool:
    """Report rounds whose (K, m, n) differ; True iff all agree with K."""
    k = actions.count
    m0, n0 = rounds[0].num_general, rounds[0].num_resources
    if n0 != expected_resources:
        report.add(
            0, "shape", (), f"rounds have n={n0} resources, budget has n={expected_resources}"
        )
    consistent = rounds[0].num_actions == k
    for idx, r in enumerate(rounds):
        if r.num_actions != k or r.num_general != m0 or r.num_resources != n0:
            consistent = False
            report.add(
                idx + 1,
                "shape",
                (),
                f"(K={r.num_actions}, m={r.num_general}, n={r.num_resources}) "
                f"inconsistent with (K={k}, m={m0}, n={n0})",
            )
    return consistent


def _value_issues(report, f, g, h, v):
    """Range and void-column checks on the stacked (T, K), (T, m, K) and
    (T, n, K) blocks; v is the void index."""
    _range_issues(report, "reward", f, 0.0, 1.0)
    _range_issues(report, "general_cost", g, -1.0, 1.0)
    _range_issues(report, "consumption", h, 0.0, 1.0)
    _void_issues(report, "reward", f[:, v], v, axis_coords=False)
    if g.shape[1]:
        _void_issues(report, "general_cost", g[:, :, v], v)
    if h.shape[1]:
        _void_issues(report, "consumption", h[:, :, v], v)


def _range_issues(report, name, stacked, lo, hi):
    ok = (stacked >= lo) & (stacked <= hi)  # NaN compares false and is flagged
    if ok.all():
        return
    for coord in np.argwhere(~ok):
        c = tuple(int(x) for x in coord)
        report.add(c[0] + 1, name, c[1:], f"value {stacked[c]!r} outside [{lo}, {hi}]")


def _void_issues(report, name, void_values, void_index, axis_coords=True):
    bad = void_values != 0.0
    if not bad.any():
        return
    for coord in np.argwhere(bad):
        c = tuple(int(x) for x in coord)
        where = c[1:] + (void_index,) if axis_coords else (void_index,)
        report.add(
            c[0] + 1, "void_column", where,
            f"void-column {name} is {void_values[c]!r}, expected 0",
        )
