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
stores are an :class:`Instance`, the distinct rows the rounds use, in order
of first use, plus a (T,) row index (round t reads row ``index[t]``), and a
:class:`StochasticModel`, the support rows plus their probabilities.
Validation checks each row once and reports its issues at every round that
uses it.

Unified constraints and duals exist only as arrays: the unified matrices
are :attr:`RowStore.unified_rows` (cost rows over consumption rows shifted
down by the per-round budget), and a :class:`Trajectory` holds a run's
duals as one (T+1, M) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Rounds the instance hash, the trace writer and the exactness and dominance
#: audits handle at a time, so their transient memory is bounded whatever the
#: horizon.
ROUND_BLOCK = 1024

#: Largest horizon T: beyond 2**53 a float no longer counts rounds exactly.
MAX_HORIZON = 2**53
#: Largest per-round budget beta_j (inclusive): the caps beta_j * T stay below
#: 2**117, and the allocator's margins stay finite (a beta near 1e300
#: overflows them).
MAX_BUDGET = 2**64
#: Exact sums count in units of 2**-EXACT_BITS, the smallest subnormal: every
#: finite float, and every exact sum of floats, is an integer number of them.
EXACT_BITS = 1074


class ValidationError(ValueError):
    """Structural problem detected at construction time."""


class InstanceValidationError(ValueError):
    """Raised when an operation requires a valid instance (or model) and got
    issues."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        head = "; ".join(map(report.describe, report.issues[:3]))
        more = "" if len(report.issues) <= 3 else f" (+{len(report.issues) - 3} more)"
        super().__init__(f"invalid {report.subject}: {head}{more}")


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
    """Horizon T and per-round budget vector; the hard caps are beta_j * T,
    with 0 < beta_j <= MAX_BUDGET and T <= MAX_HORIZON."""

    horizon: int
    per_round_budget: np.ndarray

    def __post_init__(self):
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ValidationError(f"horizon must be a positive integer, got {self.horizon!r}")
        if self.horizon > MAX_HORIZON:
            raise ValidationError(f"horizon T={self.horizon} is above MAX_HORIZON = 2**53")
        b = np.asarray(self.per_round_budget, dtype=np.float64).reshape(-1)
        if b.size and (not np.all(np.isfinite(b)) or np.any(b <= 0.0)):
            raise ValidationError("per-round budgets must be finite and > 0")
        if b.size and float(b.max()) > MAX_BUDGET:
            j = int(b.argmax())
            raise ValidationError(f"beta[{j}] = {float(b[j])!r} is above MAX_BUDGET = 2**64")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "per_round_budget", _readonly(b))

    @property
    def num_resources(self) -> int:
        return self.per_round_budget.shape[0]

    @property
    def limits(self) -> np.ndarray:
        """Total budgets B_j = beta_j * T."""
        return self.per_round_budget * self.horizon


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
        """(S, M, K) unified constraint matrices of the rows: the (S, m, K)
        general costs over the (S, n, K) consumptions shifted down by the
        (n,) per-round budget."""
        _, general, consumption = self.rows
        beta = self.budget.per_round_budget
        return _frozen(np.concatenate([general, consumption - beta[None, :, None]], axis=1))


def _canonical(rows, index):
    """The distinct rows of the (F, G, H) stacks ``rows`` that ``index``
    uses, rows of equal bytes merged, in order of first use, and the index
    into them."""
    # Each row's first round, by a minimum (order-free, unlike repeated
    # fancy-index writes); the used rows, by first use, are then the rows
    # of the rounds that are some row's first.  O(T + S), no sort.
    first = np.full(rows[0].shape[0], index.size)
    np.minimum.at(first, index, np.arange(index.size))
    starts = np.zeros(index.size, dtype=bool)
    starts[first[first < index.size]] = True
    order = index[starts]
    words = np.concatenate([r[order].reshape(order.size, -1) for r in rows], 1).view(np.uint64)
    sort = np.argsort(words.view(f"V{8 * words.shape[1]}").ravel(), kind="stable")
    new = np.concatenate(([True], (words[sort[1:]] != words[sort[:-1]]).any(axis=1)))
    head = np.empty_like(sort)  # each used row's first equal row
    head[sort] = sort[new][np.cumsum(new) - 1]
    keep, label = np.unique(head, return_inverse=True)
    position = np.zeros(rows[0].shape[0], dtype=np.int64)
    position[order] = label.ravel()
    return tuple(_frozen(r[order[keep]]) for r in rows), position[index]


@dataclass(frozen=True, eq=False)
class Instance(RowStore):
    """A fully specified adversarial run: action set, budget, and the input
    rows of every round.

    Round t's inputs are row ``index[t]`` of the stacks ``rows``; ``index``
    is read-only, (T,) int64.  Whatever pool it is given, an instance keeps
    one canonical form: the distinct rows its rounds use (equal bytes in F,
    G and H, so 0.0 and -0.0 differ), in order of first use.  Two instances
    of one round sequence store the same arrays.
    """

    index: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        index = np.array(self.index, dtype=np.int64)
        if index.shape != (self.budget.horizon,):
            raise ValidationError(
                f"{index.size} rounds provided for horizon T={self.budget.horizon}"
            )
        size = self.rows[0].shape[0]
        if index.min() < 0 or index.max() >= size:
            raise ValidationError(f"round index outside the {size} rows")
        rows, index = _canonical(self.rows, index)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "index", _frozen(index))

    @property
    def horizon(self) -> int:
        return self.budget.horizon

    @property
    def num_actions(self) -> int:
        return self.actions.count

    def validate(self) -> "ValidationReport":
        """Every budget-gate, range and void-column issue of the rounds; each
        row is checked once."""
        return pool_issues(ValidationReport(), self.budget, self.rows, self.index, self.actions)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run on ``instance``: the round loop's own state, with the played
    rounds looked up in the instance's rows.

    ``candidates`` holds each round's best response, ``stopping_time`` the
    round the gate closed (T if it never did), ``duals`` lambda_1 ..
    lambda_{T+1} (shape (T+1, M); row t-1 is the dual state the round-t
    decision saw).  ``actions`` are the candidates while the gate was open
    and the void action after; ``rewards`` and ``unified_values`` are the
    played actions' entries of the instance's rows, the latter the gradients
    fed to the dual update.  The running totals, which the summary, the
    trace and the audits all read, are defined here once and summed in
    round order: Rew(t) ``cumulative_reward`` (T,), the general costs
    ``cumulative_general`` (T, m), whose row maxima are V_t, and the played
    consumptions ``cumulative_consumption`` (T, n); ``dual_l1`` (T+1,) holds
    ||lambda_t||_1.
    """

    instance: Instance
    candidates: np.ndarray
    stopping_time: int
    duals: np.ndarray
    eta: float
    delta: float

    def __post_init__(self):
        t, M = self.horizon, self.num_constraints
        if np.shape(self.candidates) != (t,) or self.duals.shape != (t + 1, M):
            raise ValidationError(f"candidates shape {np.shape(self.candidates)} or duals shape "
                                  f"{self.duals.shape} inconsistent with T={t}, M={M}")
        if not 0 <= self.stopping_time <= t:
            raise ValidationError(f"stopping_time {self.stopping_time} outside [0, {t}]")
        object.__setattr__(self, "candidates", _frozen(np.asarray(self.candidates, np.int64)))
        object.__setattr__(self, "stopping_time", int(self.stopping_time))
        object.__setattr__(self, "duals", _readonly(self.duals))

    @cached_property
    def gate_open(self) -> np.ndarray:
        return _frozen(np.arange(self.horizon) < self.stopping_time)

    @cached_property
    def actions(self) -> np.ndarray:
        return _frozen(np.where(self.gate_open, self.candidates, self.instance.actions.void_index))

    # A fancy-index gather is a fresh C-contiguous float64 array (its index
    # dimensions lead), so each lookup freezes it as it is, with no copy.
    @cached_property
    def rewards(self) -> np.ndarray:
        return _frozen(self.instance.rows[0][self.instance.index, self.actions])

    @cached_property
    def unified_values(self) -> np.ndarray:
        return _frozen(self.instance.unified_rows[self.instance.index, :, self.actions])

    @cached_property
    def cumulative_reward(self) -> np.ndarray:
        return _frozen(np.cumsum(self.rewards))

    @cached_property
    def cumulative_general(self) -> np.ndarray:
        """The unified general rows are the raw costs g_t(x_t)."""
        return _frozen(np.cumsum(self.unified_values[:, :self.num_general], axis=0))

    @cached_property
    def dual_l1(self) -> np.ndarray:
        """The row sums of the duals, as each is +0.0 or positive: the loop
        starts at 0.0, clips at 0.0, and a sum is -0.0 only if both terms
        are."""
        return _frozen(self.duals.sum(axis=1))

    @cached_property
    def cumulative_consumption(self) -> np.ndarray:
        """The loop's running sums, from its 0.0: a first -0.0 totals 0.0."""
        played = self.instance.rows[2][self.instance.index, :, self.actions]
        totals = np.concatenate([np.zeros((1, self.num_resources)), played])
        return _frozen(np.add.accumulate(totals, out=totals)[1:])

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    @property
    def num_general(self) -> int:
        return self.instance.num_general

    @property
    def num_resources(self) -> int:
        return self.instance.num_resources

    @property
    def num_constraints(self) -> int:
        return self.instance.num_constraints


def exact_sum(values: np.ndarray) -> int:
    """The exact sum of float ``values``, in units of 2**-EXACT_BITS.

    Every finite float is ``mant * 2**(e - 53)`` with ``mant = frac * 2**53``
    an integer below 2**53 (``frac, e = np.frexp(v)``, subnormals included).
    The floats are grouped by exponent with one stable sort, and each group's
    mantissas are summed in two 26-bit int64 halves, so no partial sum can
    overflow below 2**36 values; the group sums then meet in one Python
    integer over the smallest power of two, which is rescaled to the unit.
    The sum is a whole number of units, so the rescaling is exact.
    """
    if not values.size:
        return 0
    frac, exp = np.frexp(values)
    mant = (frac * 2.0**53).astype(np.int64)
    exp = exp.astype(np.int64)
    order = np.argsort(exp, kind="stable")
    exp, mant = exp[order], mant[order]
    starts = np.flatnonzero(np.concatenate(([True], exp[1:] != exp[:-1])))
    high = np.add.reduceat(mant >> 26, starts).tolist()
    low = np.add.reduceat(mant & (2**26 - 1), starts).tolist()
    shifts = (exp[starts] - 53).tolist()
    base = shifts[0]
    num = sum(((h << 26) + lo) << (s - base) for h, lo, s in zip(high, low, shifts))
    base += EXACT_BITS
    return num << base if base >= 0 else num >> -base


def exact_value(x: float) -> int:
    """The finite float ``x`` in units of 2**-EXACT_BITS: its
    ``as_integer_ratio`` denominator is a power of two no larger than
    2**EXACT_BITS."""
    num, den = float(x).as_integer_ratio()
    return num << (EXACT_BITS + 1 - den.bit_length())


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

    def validate(self, horizon: int | None = None) -> "ValidationReport":
        """Range/void checks on the support plus the budget-gate check at
        ``horizon``, by default the stored sampling horizon."""
        budget = self.budget
        if horizon is not None:
            budget = BudgetSpec(horizon, budget.per_round_budget)
        return pool_issues(
            ValidationReport(subject="model"), budget, self.rows, np.arange(self.support_size),
            self.actions,
        )


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant; ``round`` is 1-based (a support row, for a
    model), 0 for an issue of the whole instance or model."""

    round: int
    field: str
    coordinate: tuple
    message: str


@dataclass
class ValidationReport:
    """The issues and warnings of an instance, or of a model (``subject``
    "model"), whose issues sit at support rows rather than rounds."""

    issues: list[ValidationIssue] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    subject: str = "instance"

    def describe(self, issue: ValidationIssue) -> str:
        unit = "round" if self.subject == "instance" else "support row"
        where = f"{unit} {issue.round}" if issue.round else self.subject
        return f"{where}: {issue.field}{list(issue.coordinate)}: {issue.message}"

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
