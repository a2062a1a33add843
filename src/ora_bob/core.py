"""Domain types for allocation instances, budgets, unified constraints and runs.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads.  Constructors enforce structural invariants
(shapes, positivity of budgets); value-level invariants such as entry ranges
and the void-column property are checked by :func:`validate_instance`, which
reports every violation instead of aborting, so malformed files can be loaded
and diagnosed.

An :class:`Instance` stores its rounds once, as read-only (F, G, H) stacks
of input rows plus a (T,) row index; the rows are exactly those the index
uses, and its per-round stacks are gathers over the rows.  Its
:class:`InputTuple` objects are built only when read.  Input rows of
different shapes are refused at construction.  Validation checks each row
once and reports its issues at every round that uses it.
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
    beta = budget.per_round_budget
    return UnifiedConstraints(unified_rows(inp.general_costs[None], inp.consumptions[None], beta)[0])


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


class RowStore:
    """Input rows stored as ``rows``: the read-only (F (S, K), G (S, m, K),
    H (S, n, K)) stacks of S rows of one shape, under a ``budget``.
    :class:`InputTuple` objects of the rows are built only when read."""

    @classmethod
    def _new(cls, actions, budget, rows, *rest):
        self = object.__new__(cls)
        self._set(actions, budget, tuple(map(_readonly, rows)), *rest)
        return self

    def _store(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True, init=False, eq=False)
class Instance(RowStore):
    """A fully specified adversarial run: action set, budget, and one input
    tuple per round.

    The rounds are stored once: ``rows`` holds the input rows some round
    uses and ``index`` (read-only, (T,) int64) each round's row.
    ``Instance(actions, budget, rounds)`` stacks one row per round;
    :meth:`from_rows` keeps the rows a given index uses, in row order (a
    sampled instance is its model's drawn support rows plus the draws).
    The per-round stacks are gathers over the rows, never cached.
    """

    actions: ActionSet
    budget: BudgetSpec
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    index: np.ndarray

    def __init__(self, actions: ActionSet, budget: BudgetSpec, rounds):
        rounds = tuple(rounds)
        self._set(actions, budget, stack_rows(rounds), np.arange(len(rounds)))

    @classmethod
    def from_rows(cls, actions: ActionSet, budget: BudgetSpec, rows, index) -> "Instance":
        """The instance whose round t is row ``index[t]`` of the (F, G, H)
        stacks ``rows``."""
        return cls._new(actions, budget, rows, index)

    def _set(self, actions, budget, rows, index):
        index = np.array(index, dtype=np.int64)
        if index.shape != (budget.horizon,):
            raise ValidationError(
                f"{index.size} rounds provided for horizon T={budget.horizon}"
            )
        size = rows[0].shape[0]
        if index.min() < 0 or index.max() >= size:
            raise ValidationError(f"round index outside the {size} rows")
        used = np.flatnonzero(np.bincount(index, minlength=size))
        if used.size < size:
            position = np.zeros(size, dtype=np.int64)
            position[used] = np.arange(used.size)
            rows, index = tuple(_frozen(r[used]) for r in rows), position[index]
        self._store(actions=actions, budget=budget, rows=rows, index=_frozen(index))

    @cached_property
    def pool(self) -> tuple[InputTuple, ...]:
        """One input tuple per row."""
        return tuple(map(InputTuple, *self.rows))

    @cached_property
    def rounds(self) -> tuple[InputTuple, ...]:
        """Each round's input tuple, the ``pool`` objects themselves."""
        return tuple(map(self.pool.__getitem__, self.index.tolist()))

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

    def unified(self, t: int) -> UnifiedConstraints:
        """Unified constraints for round t (1-based)."""
        return UnifiedConstraints(self.unified_rows[self.index[t - 1]])

    def validate(self) -> "ValidationReport":
        """validate_instance on these rounds: each row is checked once."""
        return pool_issues(ValidationReport(), self.budget, self.rows, self.index, self.actions)


def stack_rows(tuples: Sequence[InputTuple]):
    """The read-only (U, K) rewards, (U, m, K) costs and (U, n, K)
    consumptions of U >= 1 input tuples; ValidationError unless they share
    one (K, m, n)."""
    shapes = sorted({_shape(r) for r in tuples})
    if len(shapes) != 1:
        raise ValidationError(f"input tuples must share one shape (K, m, n), got {shapes}")
    arrays = zip(*((r.rewards, r.general_costs, r.consumptions) for r in tuples))
    return tuple(_frozen(np.stack(a)) for a in arrays)


def _shape(r: InputTuple) -> tuple[int, int, int]:
    return r.num_actions, r.num_general, r.num_resources


def unified_rows(general: np.ndarray, consumption: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(U, M, K) unified matrices: the (U, m, K) costs over the (U, n, K)
    consumptions shifted down by beta."""
    if consumption.shape[1] != beta.shape[0]:
        raise ValidationError(
            f"consumption axis mismatch: input has n={consumption.shape[1]} resource "
            f"rows, budget has n={beta.shape[0]}"
        )
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


def validate_instance(
    rounds: Sequence[InputTuple], budget: BudgetSpec, actions: ActionSet
) -> ValidationReport:
    """Check every range, shape and void-column invariant; never aborts.

    Issues carry (round, field, coordinate) so callers can locate each
    offending entry; budget-level problems are reported with round 0.
    Rounds of different shapes are reported round by round.
    """
    report = ValidationReport()
    t_count = len(rounds)
    if t_count != budget.horizon:
        report.add(0, "shape", (), f"{t_count} rounds provided for horizon T={budget.horizon}")
    if t_count == 0:
        return report
    shapes = [_shape(r) for r in rounds]
    if len(set(shapes)) == 1:
        return pool_issues(report, budget, stack_rows(rounds), np.arange(t_count), actions)
    budget_gate_issues(report, budget)
    _shape_ok(report, shapes, np.arange(t_count), actions.count, budget.num_resources)
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


def pool_issues(report, budget, rows, index, actions) -> ValidationReport:
    """``report`` with the budget-gate issues, then the shape, range and
    void-column checks of the rounds whose inputs are row ``index[t]`` of
    the (F, G, H) stacks ``rows``, each row used by some round.  Every row
    is checked once and its issues are reported at each round that uses it,
    in the order a round-by-round check finds them."""
    budget_gate_issues(report, budget)
    f, g, h = rows
    shape = (f.shape[1], g.shape[1], h.shape[1])
    if _shape_ok(report, [shape], np.zeros_like(index), actions.count, budget.num_resources):
        v = actions.void_index
        _range_issues(report, index, "reward", f, 0.0, 1.0)
        _range_issues(report, index, "general_cost", g, -1.0, 1.0)
        _range_issues(report, index, "consumption", h, 0.0, 1.0)
        _void_issues(report, index, "reward", f[:, v], v)
        _void_issues(report, index, "general_cost", g[:, :, v], v)
        _void_issues(report, index, "consumption", h[:, :, v], v)
    return report


def _shape_ok(report, shapes, rows, k, expected_resources) -> bool:
    """Report rounds whose (K, m, n) ``shapes[rows[t]]`` differ from round
    1's (m, n) and the action count k; True iff none do."""
    m0, n0 = shapes[rows[0]][1:]
    if n0 != expected_resources:
        report.add(
            0, "shape", (), f"rounds have n={n0} resources, budget has n={expected_resources}"
        )
    odd = np.array([s != (k, m0, n0) for s in shapes])
    for t in np.flatnonzero(odd[rows]):
        kt, mt, nt = shapes[rows[t]]
        report.add(int(t) + 1, "shape", (), f"(K={kt}, m={mt}, n={nt}) "
                   f"inconsistent with (K={k}, m={m0}, n={n0})")
    return not odd.any()


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
        report.add(t, name, c, f"value {stacked[row][c]!r} outside [{lo}, {hi}]")


def _void_issues(report, index, name, void_values, void_index):
    for t, c, row in _bad_entries(index, void_values != 0.0):
        report.add(
            t, "void_column", c + (void_index,),
            f"void-column {name} is {void_values[row][c]!r}, expected 0",
        )
