"""Day-ahead storage scheduling against a time-of-use tariff.

The station's bill is sum over slots of (EV load + ESS power) * price * dt.
The ESS power p_i of slot i (positive while charging) lies in [lb_i, ub_i],
and the stored energy e_i = e_{i-1} + dt * p_i, with e_{-1} = soc_init * C,
in [0, C]. The optional terminal condition is e_{n-1} >= soc_init * C; the
optional non-export constraint (on by default) tightens lb_i to -EV load.

This is Bellman's warehouse problem (1956) with per-slot power limits, and
``solve_schedule_slots`` solves it exactly by a convex dynamic program (see
``_cheapest_energy``). The tests cross-check its cost against an
enumeration oracle on small instances and against a HiGHS linear program.
A ``SchedulePlan`` checks the schedule and the inputs it is built from and
computes its own bill from them; no bill can be handed to it.
When the days of a horizon tile the same prices, there are many optimal
schedules: only the total cost is pinned, and the per-day split of it is
whichever optimum the DP returns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import ConfigurationError, DataError, SolverError
from .forecast import DAY_MINUTES, LoadProfile
from .kde import overflow_as_data_error

#: Feasibility tolerance of the post-solve verification pass.
VERIFY_TOL = 1e-9
#: Most slots in one horizon, 3,660 days of 15 minutes: the storage DP's work grows with slots.
MAX_HORIZON_SLOTS = 3660 * 96


@dataclass(frozen=True)
class TariffSchedule:
    """Daily time-of-use price windows: (start_min, end_min, price_per_kwh).

    Each window must run forward (start below end), the windows must tile
    [0, 1440) exactly, and each price must be positive and finite; the
    schedule repeats for multi-day horizons.
    """

    windows: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.windows or any(len(w) != 3 for w in self.windows):
            raise ConfigurationError("tariff needs one or more [start_min, end_min, price] rows")
        ordered = tuple(sorted(self.windows, key=lambda w: w[0]))
        starts, ends, prices = zip(*ordered)
        if not all(start < end for start, end in zip(starts, ends)):
            raise ConfigurationError("tariff windows must run forward: each start below its end")
        gaps = [end for end, start in zip((0.0, *ends), (*starts, DAY_MINUTES)) if end != start]
        if gaps:
            raise ConfigurationError(f"tariff windows do not tile [0, 1440) at minute {gaps[0]}")
        if not all(0 < price < np.inf for price in prices):
            raise ConfigurationError("tariff prices must be positive and finite")
        object.__setattr__(self, "windows", ordered)

    def slot_prices(self, slot_minutes: float, n_slots: int) -> np.ndarray:
        """Per-slot prices of ``n_slots`` slots from minute 0, the windows repeating
        daily; a slot that ends past the window it starts in is a grid mismatch."""
        ends, prices = np.array([window[1:] for window in self.windows], dtype=float).T
        start = np.arange(n_slots) * slot_minutes
        t0 = start % DAY_MINUTES
        window = np.searchsorted(ends, t0, side="right")
        straddling = start[t0 + slot_minutes > ends[window]]
        if straddling.size:
            raise DataError(f"slot starting at minute {straddling[0]} straddles a tariff boundary")
        return prices[window]


#: Peak-valley tariff used by the bundled case-study configuration (per kWh).
DEFAULT_TARIFF = TariffSchedule((
    (0.0, 480.0, 0.3338),      # 00:00-08:00 valley
    (480.0, 840.0, 0.6380),    # 08:00-14:00 shoulder
    (840.0, 1020.0, 1.0282),   # 14:00-17:00 peak
    (1020.0, 1140.0, 0.6380),  # 17:00-19:00 shoulder
    (1140.0, 1320.0, 1.0282),  # 19:00-22:00 peak
    (1320.0, 1440.0, 0.6380),  # 22:00-24:00 shoulder
))


@dataclass(frozen=True)
class EssParams:
    """Station storage parameters, checked once when built (the two flags
    are bools); the fields are the config file's ``ess`` keys."""

    c_ess_kwh: float = 5445.0
    p_charge_max_kw: float = 545.0
    p_discharge_max_kw: float = 545.0
    soc_init: float = 0.5
    require_terminal_soc: bool = True
    allow_export: bool = False

    def __post_init__(self):
        for name in ("require_terminal_soc", "allow_export"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(f"{name} must be true or false, got {value!r}")
        if not 0 <= self.c_ess_kwh < np.inf:
            raise ConfigurationError("c_ess_kwh must be >= 0 and finite")
        if not (0 <= self.p_charge_max_kw < np.inf and 0 <= self.p_discharge_max_kw < np.inf):
            raise ConfigurationError("ESS power limits must be >= 0 and finite")
        if not 0.0 <= self.soc_init <= 1.0:
            raise ConfigurationError("soc_init must be in [0, 1]")


@dataclass
class SchedulePlan:
    """An ESS schedule with the bill it implies, computed when it is built.

    A plan is built from what decides it: slot prices, EV load, the signed
    ESS power ``p_ess_kw`` (positive charging, negative discharging), the
    slot length (a real number) and the store it plans for. The arrays may
    be sequences, but one-dimensional; bad inputs are a DataError, raised
    first. The station draw ``p_ch_kw``, ``soc_ess`` (the state of charge
    after slot i's ESS power has been applied) and the bill follow from
    those. Only ``multi_day_schedule``, which is handed the days, fills the
    per-day bills; a plan of ``solve_schedule_slots`` alone leaves them empty.
    """

    price: np.ndarray
    p_ev_kw: np.ndarray
    p_ess_kw: np.ndarray
    dt_hours: float
    ess: EssParams
    p_ch_kw: np.ndarray = field(init=False)
    soc_ess: np.ndarray = field(init=False)
    cost_with_ess: float = field(init=False)
    cost_baseline: float = field(init=False)
    saving_fraction: float = field(init=False)
    day_costs_with_ess: list[float] = field(default_factory=list)
    day_costs_baseline: list[float] = field(default_factory=list)

    @overflow_as_data_error("the bill overflows a float")
    def __post_init__(self):
        try:
            self.price, self.p_ev_kw, self.p_ess_kw = prices, p_ev, p_ess = [
                np.asarray(x, dtype=float) for x in (self.price, self.p_ev_kw, self.p_ess_kw)]
        except (ValueError, TypeError) as exc:  # a ragged nesting, a cell that is no number
            raise DataError(f"price vector and load profile must be arrays of numbers: {exc}") from None
        ess, dt_hours = self.ess, self.dt_hours
        if not prices.ndim == p_ev.ndim == p_ess.ndim == 1:
            raise DataError("price vector and load profile must be one-dimensional")
        if not len(p_ess):
            raise DataError("load profile has no slots")
        if not len(prices) == len(p_ev) == len(p_ess):
            raise DataError("price vector and load profile lengths differ")
        if not np.all((p_ev >= 0) & np.isfinite(p_ev)):
            raise DataError("EV load must be finite and nonnegative")
        if not np.all((prices > 0) & np.isfinite(prices)):
            raise DataError("slot prices must be positive and finite")
        if not (isinstance(dt_hours, Real) and 0 < dt_hours < np.inf):
            raise DataError(f"slot length must be positive and finite, got {dt_hours!r} h")
        if not np.all(np.isfinite(p_ess)):
            raise DataError("ESS power must be finite")
        if ess.c_ess_kwh > 0:
            self.soc_ess = ess.soc_init + dt_hours * np.cumsum(p_ess) / ess.c_ess_kwh
        else:
            self.soc_ess = np.full(len(p_ess), ess.soc_init)
        self.p_ch_kw = p_ev + p_ess
        cost = self.cost_with_ess = float(np.sum(self.p_ch_kw * prices) * dt_hours)
        baseline = self.cost_baseline = float(np.sum(p_ev * prices) * dt_hours)
        self.saving_fraction = (baseline - cost) / baseline if baseline > 0 else 0.0

    @property
    def n_slots(self) -> int:
        return len(self.p_ess_kw)


def verify_plan(plan: SchedulePlan, ess: EssParams) -> None:
    """Check every feasibility condition of a plan; SolverError on failure.

    Power and SOC bounds are checked to ``VERIFY_TOL`` (scaled by the power
    limits for the power checks), the stored-energy recursion is re-derived
    from the ESS powers slot by slot, and a NaN fails every check it meets.
    """
    power_scale = max(1.0, ess.p_charge_max_kw, ess.p_discharge_max_kw)
    p_tol = VERIFY_TOL * power_scale

    if not np.all(plan.p_ess_kw <= ess.p_charge_max_kw + p_tol):
        raise SolverError("ESS charging power exceeds its limit")
    if not np.all(plan.p_ess_kw >= -ess.p_discharge_max_kw - p_tol):
        raise SolverError("ESS discharging power exceeds its limit")
    ev_tol = VERIFY_TOL * np.max(np.abs(plan.p_ev_kw), initial=1.0)
    if not (ess.allow_export or np.all(plan.p_ch_kw >= -max(p_tol, ev_tol))):
        raise SolverError("station draw is negative while export is disabled")
    if not np.max(np.abs(plan.p_ch_kw - (plan.p_ev_kw + plan.p_ess_kw))) <= p_tol:
        raise SolverError("station draw does not equal EV load plus ESS power")

    if ess.c_ess_kwh > 0:
        soc_expected = ess.soc_init + plan.dt_hours * np.cumsum(plan.p_ess_kw) / ess.c_ess_kwh
        if not np.max(np.abs(plan.soc_ess - soc_expected)) <= VERIFY_TOL:
            raise SolverError("SOC recursion mismatch")
        if not np.all((plan.soc_ess >= -VERIFY_TOL) & (plan.soc_ess <= 1.0 + VERIFY_TOL)):
            raise SolverError("ESS state of charge out of [0, 1]")
        if ess.require_terminal_soc and not plan.soc_ess[-1] >= ess.soc_init - VERIFY_TOL:
            raise SolverError("terminal state of charge below its floor")
    else:
        if not np.all(np.abs(plan.p_ess_kw) <= p_tol):
            raise SolverError("zero-capacity ESS must stay idle")


# ---------------------------------------------------------------------------
# Costs and solvers
# ---------------------------------------------------------------------------

def _trim(slopes: list[float], lengths: list[float], amount: float, end: int) -> None:
    """Remove ``amount`` of domain from the cheap (``end=0``) or dear
    (``end=-1``) end of a segment list."""
    while lengths and lengths[end] <= amount:
        amount -= lengths.pop(end)
        slopes.pop(end)
    if lengths:
        lengths[end] -= amount


def _cheapest_energy(prices: np.ndarray, lo: np.ndarray, hi: np.ndarray, capacity: float,
                     e_init: float, terminal: bool) -> np.ndarray:
    """Stored energy after each slot of a cheapest schedule whose slot i
    adds between ``lo[i]`` and ``hi[i]`` kWh at ``prices[i]`` > 0.

    The cheapest cost of reaching energy e is convex and piecewise linear,
    with prices as slopes: a left end and [slope, length] segments sorted by
    slope. Each slot inserts (price, hi - lo), shifts the left end by lo and
    cuts the domain to [0, capacity]. The cheapest final energy is the left
    end, or e_init if ``terminal`` and higher; walking back, each slot starts
    where the slope crosses its price, clipped to energies reaching its end.
    """
    lo, hi = lo.tolist(), hi.tolist()
    left = e_init
    slopes, lengths, bounds = [], [], []  # bounds: per slot domain ends, price crossing
    for price, a, b in zip(prices.tolist(), lo, hi):
        j = bisect_left(slopes, price)
        bounds.append((left, left + sum(lengths), left + sum(lengths[:j])))
        if j < len(slopes) and slopes[j] == price:
            lengths[j] += b - a
        elif b > a:
            slopes.insert(j, price)
            lengths.insert(j, b - a)
        left += a
        if left < 0:
            _trim(slopes, lengths, -left, 0)
            left = 0.0
        excess = left + sum(lengths) - capacity
        if excess > 0:
            _trim(slopes, lengths, excess, -1)

    energy = []
    e = max(left, e_init) if terminal else left
    for (dom_lo, dom_hi, cross), a, b in zip(reversed(bounds), reversed(lo), reversed(hi)):
        energy.append(e)
        e = min(max(cross, e - b, dom_lo), e - a, dom_hi)
    return np.array(energy[::-1])


def solve_schedule_slots(
    p_ev_kw: np.ndarray,
    prices: np.ndarray,
    dt_hours: float,
    ess: EssParams,
) -> SchedulePlan:
    """Cheapest ESS schedule on a slot grid (exact DP), or the idle plan,
    built first to check the inputs, if the DP's plan does not bill less."""
    idle = SchedulePlan(prices, p_ev_kw, np.zeros(np.shape(p_ev_kw)), dt_hours, ess)
    p_ev, prices = idle.p_ev_kw, idle.price
    lb = np.full(len(p_ev), -ess.p_discharge_max_kw)
    if not ess.allow_export:
        lb = np.maximum(lb, -p_ev)
    ub = np.full(len(p_ev), ess.p_charge_max_kw)
    e_init = ess.soc_init * ess.c_ess_kwh
    energy = _cheapest_energy(
        prices, dt_hours * lb, dt_hours * ub, ess.c_ess_kwh, e_init, ess.require_terminal_soc
    )
    p_ess = np.clip(np.diff(energy, prepend=e_init) / dt_hours, lb, ub)
    plan = SchedulePlan(prices, p_ev, p_ess, dt_hours, ess)
    if not plan.cost_with_ess < idle.cost_with_ess:  # a DP that cannot save may bill a hair more
        plan = idle
    verify_plan(plan, ess)
    return plan


def check_horizon(n_days: int, slot_minutes: int) -> None:
    """ConfigurationError if the horizon holds more than ``MAX_HORIZON_SLOTS`` slots."""
    if n_days * (DAY_MINUTES // slot_minutes) > MAX_HORIZON_SLOTS:
        raise ConfigurationError(f"horizon_days {n_days} of {slot_minutes}-minute slots is more "
                                 f"than the scheduler's {MAX_HORIZON_SLOTS} slots")


def multi_day_schedule(
    day_profiles: list[LoadProfile], tariff: TariffSchedule, ess: EssParams
) -> SchedulePlan:
    """One schedule across consecutive days with SOC carried over, and its bill by day."""
    if not day_profiles:
        raise DataError("need at least one day of load")
    slot = day_profiles[0].slot_minutes
    for profile in day_profiles:
        if profile.slot_minutes != slot:
            raise DataError("all days must share one slot grid")
        if len(profile.power_kw) * slot != DAY_MINUTES:
            raise DataError("each profile must cover exactly one day")
    check_horizon(len(day_profiles), slot)

    p_ev = np.concatenate([p.power_kw for p in day_profiles])
    prices = tariff.slot_prices(slot, len(p_ev))
    plan = solve_schedule_slots(p_ev, prices, slot / 60.0, ess)
    plan.day_costs_with_ess, plan.day_costs_baseline = (
        ((power * prices).reshape(len(day_profiles), -1).sum(axis=1) * plan.dt_hours).tolist()
        for power in (plan.p_ch_kw, p_ev))
    return plan
