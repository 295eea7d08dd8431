"""Debris-abatement game: benefit coefficients, Nash profiles, treaty design.

Every party's marginal benefit from total abatement is linear because
welfare is exactly quadratic in abatement. Two coefficient variants ship
side by side: the model-derived pair extracted from the welfare curve
itself, and the closed-form pair the two-player analysis prescribes. The
variants disagree (in sign of the slope, not just magnitude) on symmetric
desk cases, so every treaty analysis carries a divergence report and never
silently prefers one. Payoffs, Nash certification, the defection response,
and the self-enforcement condition all follow from the chosen pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ActiveSetChangeError
from .open_access import (
    OpenAccessEquilibrium,
    _rho_form,
    _share,
    required_abatement,
    solve_equilibrium,
)
from .oracle import finite_difference
from .regulation import national_welfare
from .scenario import AbatementProfile, Scenario, TaxSchedule

MODEL_DERIVED = "model-derived"
CLOSED_FORM = "closed-form"

COEFFICIENT_AGREEMENT = 1e-6
NASH_GAIN_TOLERANCE = 1e-9
BRANCH_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BenefitCoefficients:
    """Marginal abatement benefit b(Q) = alpha - beta * Q for one party."""

    alpha: float
    beta: float
    variant: str
    fit_residual: float | None = None   # model-derived only

    def marginal_benefit(self, total_abatement: float) -> float:
        return self.alpha - self.beta * total_abatement


@dataclass(frozen=True)
class CoefficientDivergence:
    """Side-by-side comparison of the two coefficient variants for one party."""

    party: int
    model: BenefitCoefficients
    closed_form: BenefitCoefficients
    alpha_gap: float
    beta_gap: float
    agree: bool


@dataclass(frozen=True)
class TreatyResponse:
    """Abatement the remaining signatories supply after one party defects."""

    raw: float          # smallest root of the defector's indifference equation
    q_rest: float       # raw clamped into [0, required abatement]
    clamped: bool


@dataclass(frozen=True)
class TreatyAnalysis:
    """Full abatement-game analysis for one scenario and coefficient variant."""

    variant: str
    qbar: float
    per_party_burden: float
    coefficients: tuple[BenefitCoefficients, ...]
    divergences: tuple[CoefficientDivergence, ...]
    nash_equilibria: tuple[AbatementProfile, ...]
    zero_profile_is_nash: bool
    symmetric_profile_is_nash: bool
    no_defection_bound: float
    averting_sustainable: bool
    responses: tuple[TreatyResponse, ...]
    condition27: tuple[bool, ...]
    self_enforcing: bool
    payoff_prefers_treaty: tuple[bool, ...]


class _Curve(NamedTuple):
    """What every party's exact quadratic W(Q) = W(0) (phi(Q)/phi0)^2 is read off."""

    base: OpenAccessEquilibrium   # the solve at Q = 0
    share: float
    q: float                      # the fit_residual probe
    welfare: tuple[float, ...]    # every market's welfare at q


def _welfare_curve(
    scenario: Scenario, taxes: TaxSchedule, base: OpenAccessEquilibrium | None = None
) -> _Curve:
    """The :class:`_Curve` of one schedule, from ``base`` (solved unless given).

    Fleets are ``phi(Q) rho/share`` and survival is ``phi(Q)/share`` with
    ``phi(Q) = phi0 + kQ``, so one solve at Q = 0 fixes every party's
    curve. ``fit_residual`` checks each against one direct welfare solve at
    ``q = 0.5 min(1, stock0 share)``, which no party changes: debris falls
    by ``1/share`` per unit of abatement, so the stock stays at least half
    its zero-abatement level.
    """
    if base is None:
        base = solve_equilibrium(scenario, taxes, 0.0)
    phi0 = 1.0 - scenario.collision_coeff * scenario.legacy_debris
    if phi0 == 0.0 and any(x > 0.0 for x in base.r):
        raise ActiveSetChangeError(
            "sectors pinned at zero abatement (phi0 == 0) enter once abatement "
            "is positive; the welfare curve is only piecewise quadratic there"
        )
    _, rho, _, kd = _rho_form(scenario, taxes)
    _, share = _share(rho, 1.0, kd)  # the share once abatement makes phi positive
    q = 0.5 * min(1.0, base.debris.stock * share)
    welfare = national_welfare(scenario, taxes, q).welfare
    return _Curve(base, share, q, welfare)


def _model_coefficients(
    scenario: Scenario, taxes: TaxSchedule, party: int, curve: _Curve | None = None
) -> BenefitCoefficients:
    """One party's pair from the :func:`_welfare_curve` (built here unless given)."""
    if party >= scenario.n_markets:
        return BenefitCoefficients(0.0, 0.0, MODEL_DERIVED, 0.0)
    if curve is None:
        curve = _welfare_curve(scenario, taxes)
    k = scenario.collision_coeff
    phi0 = 1.0 - k * scenario.legacy_debris
    kept = (1.0 - taxes.as_array[:, party]) @ curve.base.fleet_array
    w0 = curve.base.debris.survival * scenario.prices[party] * kept
    if k == 0.0 or w0 == 0.0:
        alpha = beta = 0.0  # flat curve; also keeps -0.0 out of the reports
    else:
        alpha = 2.0 * k * w0 / phi0
        beta = -2.0 * k * k * w0 / phi0**2
    q = curve.q
    predicted = w0 + alpha * q - 0.5 * beta * q * q
    residual = abs(curve.welfare[party] - predicted)
    return BenefitCoefficients(float(alpha), float(beta), MODEL_DERIVED, float(residual))


def _closed_form_coefficients(
    scenario: Scenario, taxes: TaxSchedule, party: int
) -> BenefitCoefficients:
    """The two-player closed form with the rest of the world aggregated.

    Its pair is ``(rho_own, rho_rest)`` with ``rho_rest`` summed over the
    other sectors with ``rho > 0``. In ``r = rho/(1 + kd rho)`` the closed
    form reads ``alpha = k r_own^2 (1 - kd r_rest)^2/(1 - kd^2 r_own r_rest)``
    and ``beta = 2k alpha kd r_own``; since ``1 - kd r_rest = 1/(1 + kd rho_rest)``
    and ``1 - kd^2 r_own r_rest = share/((1 + kd rho_own)(1 + kd rho_rest))``,
    alpha is ``k rho_own^2/((1 + kd rho_own)(1 + kd rho_rest) share)``.
    """
    if party >= scenario.n_sectors:
        # A party without a sector enters the two-group form with a null
        # own player: both coefficients collapse to zero.
        return BenefitCoefficients(0.0, 0.0, CLOSED_FORM)
    _, rho, _, kd = _rho_form(scenario, taxes)
    k = scenario.collision_coeff
    rho_own = rho[party]
    rho_rest = sum(x for j, x in enumerate(rho) if j != party and x > 0.0)
    own, rest = 1.0 + kd * rho_own, 1.0 + kd * rho_rest
    alpha = k * rho_own**2 / (own * rest * (own + kd * rho_rest))
    beta = 2.0 * k * alpha * kd * rho_own / own
    return BenefitCoefficients(float(alpha), float(beta), CLOSED_FORM)


def benefit_coefficients(
    scenario: Scenario,
    taxes: TaxSchedule,
    party: int,
    variant: str = MODEL_DERIVED,
) -> BenefitCoefficients:
    """Linear marginal-benefit coefficients for one party.

    The model-derived variant reads the exact welfare quadratic off one
    equilibrium at zero abatement; the closed-form variant evaluates the
    closed two-player expressions with the rest of the world aggregated.
    """
    if variant == MODEL_DERIVED:
        return _model_coefficients(scenario, taxes, party)
    if variant == CLOSED_FORM:
        return _closed_form_coefficients(scenario, taxes, party)
    raise ValueError(f"unknown coefficient variant {variant!r}")


def coefficient_divergence(
    scenario: Scenario, taxes: TaxSchedule, party: int
) -> CoefficientDivergence:
    """Both coefficient variants for one party, with their gaps."""
    return _divergence(scenario, taxes, party)


def _divergence(
    scenario: Scenario, taxes: TaxSchedule, party: int, curve: _Curve | None = None
) -> CoefficientDivergence:
    model = _model_coefficients(scenario, taxes, party, curve)
    closed = _closed_form_coefficients(scenario, taxes, party)
    alpha_gap = abs(model.alpha - closed.alpha)
    beta_gap = abs(model.beta - closed.beta)
    return CoefficientDivergence(
        party=party,
        model=model,
        closed_form=closed,
        alpha_gap=alpha_gap,
        beta_gap=beta_gap,
        agree=bool(alpha_gap <= COEFFICIENT_AGREEMENT and beta_gap <= COEFFICIENT_AGREEMENT),
    )


def _coefficient_pass(
    scenario: Scenario, taxes: TaxSchedule, base: OpenAccessEquilibrium | None = None
) -> tuple[float, tuple[CoefficientDivergence, ...]]:
    """Responsive required abatement and every party's divergence record.

    One :func:`_welfare_curve` serves every party, and its solve and
    ``share`` give :func:`required_abatement`'s responsive root by the same
    arithmetic, so the whole pass costs one solve at Q = 0 and one probe.
    """
    curve = _welfare_curve(scenario, taxes, base)
    gap = curve.base.debris.stock - scenario.catastrophe_threshold
    qbar = float(gap * curve.share) if gap > 0.0 else 0.0
    return qbar, tuple(
        _divergence(scenario, taxes, party, curve)
        for party in range(scenario.treaty_parties)
    )


def abatement_payoff(
    scenario: Scenario,
    coefficients: BenefitCoefficients,
    own_abatement: float,
    total_abatement: float,
    qbar: float,
) -> float:
    """One party's payoff from its contribution given total abatement.

    Benefits accrue at the threshold level once catastrophe is averted;
    below the threshold, damages hit and benefits accrue at the realized
    total. The quadratic cost is always paid on the own contribution.
    """
    cost = 0.5 * scenario.abatement_cost * own_abatement**2
    averted = total_abatement >= qbar - BRANCH_TOLERANCE * max(1.0, abs(qbar))
    if averted:
        return coefficients.marginal_benefit(qbar) - cost
    return (
        coefficients.marginal_benefit(total_abatement)
        - scenario.catastrophe_damages
        - cost
    )


def _shortfall(scenario: Scenario, beta: float) -> float:
    """The larger root x of (c/2) x^2 + beta x - X = 0: the defector's shortfall."""
    c = scenario.abatement_cost
    return (math.sqrt(beta**2 + 2.0 * c * scenario.catastrophe_damages) - beta) / c


def treaty_response(
    scenario: Scenario, coefficients: BenefitCoefficients, qbar: float
) -> TreatyResponse:
    """Remaining-signatory abatement that leaves a defector indifferent.

    The response is ``qbar`` less the :func:`_shortfall`, which leaves the
    defector indifferent (the larger root, so the smaller response).
    Negative raw responses are clamped to zero: the defector would then
    avert alone.
    """
    raw = qbar - _shortfall(scenario, coefficients.beta)
    clamped_value = min(max(raw, 0.0), qbar)
    return TreatyResponse(
        raw=float(raw), q_rest=float(clamped_value), clamped=bool(raw < 0.0)
    )


def _best_payoff(
    scenario: Scenario, coeff: BenefitCoefficients, others: float, qbar: float
) -> float:
    """Best payoff of one party against the others' total contribution.

    Below the threshold the payoff is concave in the own contribution q
    with its peak at ``-beta/c``; from the threshold on it only falls in q.
    So the best reply is one of ``0``, ``clip(-beta/c, 0, room)`` and
    ``room``, where ``room = max(qbar - others, 0)`` averts exactly.
    """
    room = max(qbar - others, 0.0)
    peak = min(max(-coeff.beta / scenario.abatement_cost, 0.0), room)
    return max(
        abatement_payoff(scenario, coeff, q, others + q, qbar) for q in (0.0, peak, room)
    )


def analyze_treaty(
    scenario: Scenario,
    taxes: TaxSchedule,
    variant: str = MODEL_DERIVED,
    qbar: float | None = None,
) -> TreatyAnalysis:
    """Full abatement-game analysis: Nash profiles, responses, enforcement.

    Candidate Nash profiles (all-zero and equal-burden) are listed only
    when no party's exact best reply beats its share; the same best reply
    against the remaining signatories' response decides whether a party
    prefers the treaty. The textbook no-defection bound is reported
    regardless so the two can be compared. ``qbar`` defaults to the
    responsive required abatement. Both variants share the divergence
    records, so :func:`_both_variants` derives the closed-form analysis
    from the model-derived one's.
    """
    # Without a given qbar the Q = 0 solve raises before the variant check.
    base = solve_equilibrium(scenario, taxes, 0.0) if qbar is None else None
    if variant not in (MODEL_DERIVED, CLOSED_FORM):
        raise ValueError(f"unknown coefficient variant {variant!r}")
    required, divergences = _coefficient_pass(scenario, taxes, base)
    return _analysis(scenario, variant, required if qbar is None else qbar, divergences)


def _analysis(
    scenario: Scenario,
    variant: str,
    qbar: float,
    divergences: tuple[CoefficientDivergence, ...],
) -> TreatyAnalysis:
    """:func:`analyze_treaty` of one variant from the shared divergence records."""
    parties = scenario.treaty_parties
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    burden = qbar / parties
    coefficients = tuple(
        d.model if variant == MODEL_DERIVED else d.closed_form for d in divergences
    )

    # A profile is Nash when no party's best reply beats its own share.
    zero_ok = all(
        _best_payoff(scenario, coeff, 0.0, qbar)
        - abatement_payoff(scenario, coeff, 0.0, 0.0, qbar)
        <= NASH_GAIN_TOLERANCE
        for coeff in coefficients
    )
    symmetric_ok = qbar <= 0.0 or all(
        _best_payoff(scenario, coeff, qbar - burden, qbar)
        - abatement_payoff(scenario, coeff, burden, qbar, qbar)
        <= NASH_GAIN_TOLERANCE
        for coeff in coefficients
    )

    profiles: list[AbatementProfile] = []
    if zero_ok:
        profiles.append(AbatementProfile.from_contributions((0.0,) * parties))
    if symmetric_ok and qbar > 0.0:
        # at qbar == 0 the averting profile IS the zero profile
        profiles.append(AbatementProfile.from_contributions((burden,) * parties))

    bounds = [coeff.beta * burden + 0.5 * c * burden**2 for coeff in coefficients]
    no_defection_bound = max(bounds) if bounds else 0.0
    averting_sustainable = damages >= no_defection_bound

    responses = tuple(
        treaty_response(scenario, coeff, qbar) for coeff in coefficients
    )
    condition27 = tuple(bool(burden < _shortfall(scenario, coeff.beta)) for coeff in coefficients)

    # A defector faces the remaining signatories' response, not the treaty.
    payoff_prefers = tuple(
        bool(
            abatement_payoff(scenario, coeff, burden, qbar, qbar)
            >= _best_payoff(scenario, coeff, response.q_rest, qbar) - 1e-12
        )
        for coeff, response in zip(coefficients, responses)
    )

    return TreatyAnalysis(
        variant=variant,
        qbar=float(qbar),
        per_party_burden=float(burden),
        coefficients=coefficients,
        divergences=divergences,
        nash_equilibria=tuple(profiles),
        zero_profile_is_nash=zero_ok,
        symmetric_profile_is_nash=bool(symmetric_ok),
        no_defection_bound=float(no_defection_bound),
        averting_sustainable=bool(averting_sustainable),
        responses=responses,
        condition27=condition27,
        self_enforcing=bool(all(condition27)),
        payoff_prefers_treaty=payoff_prefers,
    )


def _both_variants(
    scenario: Scenario, taxes: TaxSchedule
) -> tuple[TreatyAnalysis, TreatyAnalysis]:
    """The model-derived and closed-form analyses of one input, from one pass."""
    model = analyze_treaty(scenario, taxes, MODEL_DERIVED)
    return model, _analysis(scenario, CLOSED_FORM, model.qbar, model.divergences)


@dataclass(frozen=True)
class BetaSensitivityEntry:
    """One derivative of the closed-form beta: finite difference vs formula."""

    name: str
    finite_difference: float
    analytic: float
    sign_agrees: bool
    relative_gap: float
    flagged: bool


@dataclass(frozen=True)
class BetaSensitivityReport:
    entries: tuple[BetaSensitivityEntry, ...]

    def entry(self, name: str) -> BetaSensitivityEntry:
        for item in self.entries:
            if item.name == name:
                return item
        raise KeyError(name)


def _resolution(func, x: float) -> tuple[float, float]:
    """The central difference of ``func`` at ``x`` and the smallest one it resolves.

    The difference is :func:`~orbituse.oracle.finite_difference`'s, bit for
    bit: ``x + (-1.0 h)`` is ``x - h``. A step-h difference carries
    round-off of about ``eps max|f|/h`` and truncation ``c h^2``, and
    doubling the step moves it by ``3 c h^2``. A difference no larger
    than that move plus the round-off is truncation and noise, not a slope:
    where the true slope is zero and beta is cubic, as at ``rho_own = 0``,
    doubling the step quadruples the difference.
    """
    h = 1e-6 * max(1.0, abs(x))
    far_lo, lo, hi, far_hi = (func(x + step * h) for step in (-2.0, -1.0, 1.0, 2.0))
    narrow = (hi - lo) / (2.0 * h)
    wide = (far_hi - far_lo) / (4.0 * h)
    noise = np.finfo(float).eps * max(abs(far_lo), abs(lo), abs(hi), abs(far_hi)) / h
    return narrow, abs(wide - narrow) + noise


def beta_sensitivity(
    scenario: Scenario, taxes: TaxSchedule, party: int
) -> BetaSensitivityReport:
    """Closed-form beta derivatives: finite differences vs analytic formulas.

    Defined for two-sector scenarios, where the other player's taxes are
    primitive quantities. In the rho-form (``rho = rev/m``, ``kd = k d``,
    ``share = 1 + kd (rho_own + rho_rest)``) the closed-form slope is
    ``beta = 2 k^2 kd rho_own^3/((1 + kd rho_own)^2 (1 + kd rho_rest) share)``, so

    * ``d ln beta / d rho_own = g_own = 3/rho_own - 2kd/(1 + kd rho_own) - kd/share > 0``,
    * ``d ln beta / d rho_rest = g_rest = -kd/(1 + kd rho_rest) - kd/share < 0``.

    A tax on sector s in market j lowers ``rho_s`` by ``p_j/m_s``, so its
    slope is ``-beta g p_j/m_s``; the own cost lowers ``rho_own`` by
    ``rho_own/m_own``, with slope ``-beta g_own rho_own/m_own``. So the own
    taxes and cost lower beta and the other player's taxes raise it.
    Disagreements between the finite differences and these formulas are
    flagged, not asserted away: the finite differences are the arbiter.

    When the other sector is fully taxed (``rho_rest = 0``) the own entries
    keep their formulas, but the other-tax entries sit on the kink where
    ``rho_rest`` leaves the sum: raising that tax leaves beta unchanged,
    lowering it moves beta at ``-beta g_rest p_j/m_s``. Their analytic
    value is the zero slope from above, and the central difference
    straddles the kink, so both stay flagged. When the own sector is fully
    taxed (``rho_own = 0``) beta is cubic in ``rho_own`` and every slope is
    zero; the own-tax differences read only their truncation error, which
    :func:`_resolution` tells from a slope.
    """
    if scenario.n_sectors != 2:
        raise ValueError("beta sensitivity is defined for two-sector scenarios")
    if not 0 <= party < 2:
        raise IndexError("party must index one of the two sectors")
    i, j = party, 1 - party
    _, rho, _, kd = _rho_form(scenario, taxes)
    beta = _closed_form_coefficients(scenario, taxes, i).beta
    g_own = g_rest = 0.0
    if rho[i] > 0.0:
        share = 1.0 + kd * (rho[i] + rho[j])
        g_own = 3.0 / rho[i] - 2.0 * kd / (1.0 + kd * rho[i]) - kd / share
        if rho[j] > 0.0:
            g_rest = -kd / (1.0 + kd * rho[j]) - kd / share
    p, m = scenario.prices, scenario.costs

    def beta_at_rate(sector: int, market: int):
        return lambda rate: _closed_form_coefficients(
            scenario, taxes.with_rate(sector, market, rate), i
        ).beta

    def beta_at_cost(cost: float) -> float:
        costs = list(scenario.costs)
        costs[i] = cost
        return _closed_form_coefficients(replace(scenario, costs=tuple(costs)), taxes, i).beta

    # Each entry's formula, beta along its input, and the point. "home" is
    # sector i's market, "away" sector j's.
    cases = {
        "tax_own_home": (-beta * g_own * p[i] / m[i], beta_at_rate(i, i), taxes.rate(i, i)),
        "tax_own_away": (-beta * g_own * p[j] / m[i], beta_at_rate(i, j), taxes.rate(i, j)),
        "tax_other_home": (-beta * g_rest * p[i] / m[j], beta_at_rate(j, i), taxes.rate(j, i)),
        "tax_other_away": (-beta * g_rest * p[j] / m[j], beta_at_rate(j, j), taxes.rate(j, j)),
        "own_cost": (-beta * g_own * rho[i] / m[i], beta_at_cost, m[i]),
    }

    entries = []
    for name, (formula, beta_at, x) in cases.items():
        fd_value, floor = _resolution(beta_at, x)
        # A difference below the stencil's resolution is truncation and
        # round-off, so the sign and gap tests read it as zero.
        resolved = fd_value if abs(fd_value) > floor else 0.0
        scale = max(abs(resolved), abs(formula), 1e-12)
        gap = abs(resolved - formula) / scale
        sign_agrees = bool(np.sign(resolved) == np.sign(formula))
        entries.append(
            BetaSensitivityEntry(
                name=name,
                finite_difference=float(fd_value),
                analytic=float(formula),
                sign_agrees=sign_agrees,
                relative_gap=float(gap),
                flagged=bool(not sign_agrees or gap > 1e-5),
            )
        )
    return BetaSensitivityReport(entries=tuple(entries))


@dataclass(frozen=True)
class TreatySupportReport:
    """How a foreign tax on one party shifts its treaty incentives."""

    aversion_slope: float     # derivative of the no-defection bound's RHS
    defection_slope: float    # derivative of the punishment margin
    side_condition: bool      # sqrt(beta^2 + 2cX) - c*beta > 0


def treaty_support_check(
    scenario: Scenario, taxes: TaxSchedule, party: int, market: int
) -> TreatySupportReport:
    """Finite-difference slopes of the treaty conditions in one tax.

    Restricted to two-sector scenarios for the same reason as
    :func:`beta_sensitivity`.
    """
    if scenario.n_sectors != 2:
        raise ValueError("treaty support check is defined for two-sector scenarios")
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    parties = scenario.treaty_parties

    def conditions(rate: float) -> np.ndarray:
        # The no-defection bound's right-hand side and the punishment margin.
        schedule = taxes.with_rate(party, market, rate)
        beta = _closed_form_coefficients(scenario, schedule, party).beta
        burden = required_abatement(scenario, schedule) / parties
        return np.array([
            beta * burden + 0.5 * c * burden**2,
            _shortfall(scenario, beta) - burden,
        ])

    aversion_slope, defection_slope = finite_difference(conditions, taxes.rate(party, market))
    beta = _closed_form_coefficients(scenario, taxes, party).beta
    side = math.sqrt(beta**2 + 2.0 * c * damages) - c * beta > 0.0
    return TreatySupportReport(
        aversion_slope=float(aversion_slope),
        defection_slope=float(defection_slope),
        side_condition=bool(side),
    )
