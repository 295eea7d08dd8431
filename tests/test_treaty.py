import math
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from orbituse import (
    MODEL_DERIVED,
    OrbitUseError,
    CLOSED_FORM,
    HIDEB,
    SOLO,
    SYM2,
    AbatementProfile,
    ActiveSetChangeError,
    Scenario,
    TaxSchedule,
    abatement_payoff,
    analyze_treaty,
    benefit_coefficients,
    beta_sensitivity,
    coefficient_divergence,
    national_welfare,
    treaty_response,
    treaty_support_check,
)
from orbituse import cli, open_access, regulation, treaty, verification
from orbituse.cli import main
from orbituse.open_access import _rho_form, _share, required_abatement, solve_equilibrium
from orbituse.oracle import deviation_search_abatement, finite_difference
from orbituse.sampling import sample_scenario
from orbituse.treaty import (
    BenefitCoefficients,
    BetaSensitivityEntry,
    BetaSensitivityReport,
    CoefficientDivergence,
    TreatyResponse,
    TreatySupportReport,
)
from orbituse.verification import _batch

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ZERO2 = TaxSchedule.zeros(2, 2)
NO_COLLISIONS = Scenario(2, 2, (1.0, 1.0), (1.0, 1.0), 0.0, 1.0, 0.0, 2.0, 1.0, 1.0)


def bisect_quadratic_root(beta, c, damages):
    """Positive root of (c/2) x^2 + beta x - damages = 0 by plain bisection."""
    lo, hi = 0.0, 1.0
    f = lambda x: 0.5 * c * x * x + beta * x - damages
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBenefitCoefficients:
    def test_sym2_model_derived(self):
        coeff = benefit_coefficients(SYM2, ZERO2, 0, MODEL_DERIVED)
        assert coeff.alpha == pytest.approx(20.0 / 49.0, abs=1e-12)
        assert coeff.beta == pytest.approx(-2.0 / 49.0, abs=1e-12)
        assert coeff.fit_residual < 1e-10

    def test_hideb_model_derived(self):
        # phi0 = 1/2 halves the fleets and the survival, so W(0) = 25/49:
        # alpha = 2k W(0)/phi0 = 10/49 and beta = -2k^2 W(0)/phi0^2 = -2/49.
        coeff = benefit_coefficients(HIDEB, ZERO2, 0, MODEL_DERIVED)
        assert coeff.alpha == pytest.approx(10.0 / 49.0, rel=0.0, abs=1e-12)
        assert coeff.beta == pytest.approx(-2.0 / 49.0, rel=0.0, abs=1e-12)
        assert coeff.fit_residual < 1e-10

    def test_phi_zero_changes_the_active_set(self):
        # k*D0 = 1: every fleet is pinned at zero abatement and re-enters as
        # soon as abatement is positive, so welfare is not one quadratic.
        edge = replace(SYM2, legacy_debris=10.0)
        with pytest.raises(ActiveSetChangeError):
            benefit_coefficients(edge, ZERO2, 0, MODEL_DERIVED)
        with pytest.raises(ActiveSetChangeError):
            analyze_treaty(edge, ZERO2, CLOSED_FORM)
        # With every sector denied nothing re-enters: the curve is flat zero.
        denied = TaxSchedule(((1.0, 1.0), (1.0, 1.0)))
        flat = benefit_coefficients(edge, denied, 0, MODEL_DERIVED)
        assert (flat.alpha, flat.beta, flat.fit_residual) == (0.0, 0.0, 0.0)

    def test_sym2_model_matches_fd_oracle(self):
        def welfare_at(q):
            return national_welfare(SYM2, ZERO2, float(q)).welfare[0]

        slope0 = finite_difference(welfare_at, 0.0)
        slope1 = finite_difference(welfare_at, 1.0)
        coeff = benefit_coefficients(SYM2, ZERO2, 0, MODEL_DERIVED)
        assert coeff.alpha == pytest.approx(slope0, abs=1e-9)
        assert coeff.beta == pytest.approx(slope0 - slope1, abs=1e-9)

    def test_sym2_closed_form(self):
        coeff = benefit_coefficients(SYM2, ZERO2, 0, CLOSED_FORM)
        assert coeff.alpha == pytest.approx(125.0 / 630.0, abs=1e-15)
        assert coeff.beta == pytest.approx(125.0 / 18900.0, abs=1e-15)

    def test_no_collisions_means_no_benefit(self):
        taxes = TaxSchedule.zeros(2, 2)
        model = benefit_coefficients(NO_COLLISIONS, taxes, 0, MODEL_DERIVED)
        assert model.alpha == pytest.approx(0.0, abs=1e-12)
        assert model.beta == pytest.approx(0.0, abs=1e-12)
        closed = benefit_coefficients(NO_COLLISIONS, taxes, 0, CLOSED_FORM)
        assert closed.alpha == 0.0
        assert closed.beta == 0.0

    def test_divergence_reproduces_sym2_gap(self):
        record = coefficient_divergence(SYM2, ZERO2, 0)
        assert record.model.alpha == pytest.approx(20.0 / 49.0, abs=1e-12)
        assert record.closed_form.alpha == pytest.approx(125.0 / 630.0, abs=1e-15)
        assert record.model.beta == pytest.approx(-2.0 / 49.0, abs=1e-12)
        assert record.closed_form.beta == pytest.approx(125.0 / 18900.0, abs=1e-15)
        assert not record.agree

    def test_welfare_quadratic_makes_fit_exact(self, rng):
        for _ in range(5):
            scenario, taxes = sample_scenario(rng, require_kessler_risk=True)
            party = int(rng.integers(0, scenario.treaty_parties))
            coeff = benefit_coefficients(scenario, taxes, party, MODEL_DERIVED)
            assert coeff.fit_residual < 1e-10

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_exact_quadratic_matches_three_point_fit(self, seed, with_taxes):
        # Reference: the quadratic through welfare at abatement 0, 1 and 2.
        # Kessler-risk draws keep the stock valid up to abatement 2.
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(
            rng, sector_range=(1, 6), with_taxes=with_taxes, require_kessler_risk=True
        )
        for party in range(scenario.treaty_parties):
            w0, w1, w2 = (
                national_welfare(scenario, taxes, q).welfare[party] for q in (0.0, 1.0, 2.0)
            )
            coeff = benefit_coefficients(scenario, taxes, party, MODEL_DERIVED)
            tolerance = 1e-12 * max(1.0, abs(w0))
            assert coeff.alpha == pytest.approx((-3.0 * w0 + 4.0 * w1 - w2) / 2.0, rel=0.0, abs=tolerance)
            assert coeff.beta == pytest.approx(2.0 * w1 - w0 - w2, rel=0.0, abs=tolerance)

    def test_non_spacefaring_party(self):
        # Three markets, two sectors: the third market still benefits from
        # abatement (model variant), but the closed form has no own player
        # to evaluate and collapses to zero. The divergence report carries
        # the gap.
        wide = Scenario(
            3, 2, (1.0, 1.0, 1.0), (1.0, 1.0), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0
        )
        taxes = TaxSchedule.zeros(2, 3)
        model = benefit_coefficients(wide, taxes, 2, MODEL_DERIVED)
        assert model.alpha > 0.0
        closed = benefit_coefficients(wide, taxes, 2, CLOSED_FORM)
        assert closed.alpha == 0.0 and closed.beta == 0.0
        record = coefficient_divergence(wide, taxes, 2)
        assert not record.agree


class TestPartiesBeyondSectors:
    def test_extra_parties_get_zero_coefficients(self, rng):
        # Parties without a market have no welfare to protect; parties
        # without a sector have no own player in the closed form.
        wide = Scenario(
            3, 2, (1.0, 1.0, 1.0), (1.0, 1.0), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0, treaty_parties=5
        )
        cases = [(wide, TaxSchedule.zeros(2, 3)), (replace(SYM2, treaty_parties=4), ZERO2)]
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, with_taxes=True, require_kessler_risk=True)
            extra = int(rng.integers(1, 4))
            cases.append((replace(scenario, treaty_parties=scenario.n_markets + extra), taxes))
        for scenario, taxes in cases:
            parties = scenario.treaty_parties
            assert parties > scenario.n_markets >= scenario.n_sectors
            for variant in (MODEL_DERIVED, CLOSED_FORM):
                analysis = analyze_treaty(scenario, taxes, variant)
                assert len(analysis.coefficients) == parties
                assert len(analysis.divergences) == parties
                assert len(analysis.responses) == parties
                for party, record in enumerate(analysis.divergences):
                    chosen = record.model if variant == MODEL_DERIVED else record.closed_form
                    assert analysis.coefficients[party] == chosen
                    if party >= scenario.n_markets:
                        assert (record.model.alpha, record.model.beta) == (0.0, 0.0)
                    else:
                        assert record.model.alpha > 0.0
                    if party >= scenario.n_sectors:
                        assert (record.closed_form.alpha, record.closed_form.beta) == (0.0, 0.0)
                    else:
                        assert record.closed_form.alpha > 0.0


class TestAbatementPayoff:
    COEFF = None  # set in setup_method

    def setup_method(self):
        self.model = benefit_coefficients(SYM2, ZERO2, 0, MODEL_DERIVED)

    def test_averted_branch(self):
        value = abatement_payoff(SYM2, self.model, 0.6, 1.2, 1.2)
        assert value == pytest.approx(22.4 / 49.0 - 0.18, abs=1e-12)

    def test_catastrophe_branch(self):
        value = abatement_payoff(SYM2, self.model, 0.0, 0.0, 1.2)
        assert value == pytest.approx(20.0 / 49.0 - 1.0, abs=1e-12)

    def test_free_rider_pays_nothing(self):
        value = abatement_payoff(SYM2, self.model, 0.0, 1.2, 1.2)
        assert value == pytest.approx(self.model.marginal_benefit(1.2), abs=1e-15)


class TestTreatyResponse:
    def test_sym2_model_variant_clamps(self):
        model = benefit_coefficients(SYM2, ZERO2, 0, MODEL_DERIVED)
        response = treaty_response(SYM2, model, 1.2)
        root = bisect_quadratic_root(model.beta, 1.0, 1.0)
        assert response.raw == pytest.approx(1.2 - root, abs=1e-9)
        assert response.clamped
        assert response.q_rest == 0.0

    def test_sym2_closed_form_variant_clamps(self):
        closed = benefit_coefficients(SYM2, ZERO2, 0, CLOSED_FORM)
        response = treaty_response(SYM2, closed, 1.2)
        root = bisect_quadratic_root(closed.beta, 1.0, 1.0)
        assert response.raw == pytest.approx(1.2 - root, abs=1e-9)
        assert response.clamped

    def test_zero_damages_degenerate(self):
        painless = replace(SYM2, catastrophe_damages=0.0)
        closed = benefit_coefficients(painless, ZERO2, 0, CLOSED_FORM)
        response = treaty_response(painless, closed, 1.2)
        assert response.raw == pytest.approx(1.2, abs=1e-15)
        assert not response.clamped
        model = benefit_coefficients(painless, ZERO2, 0, MODEL_DERIVED)
        response = treaty_response(painless, model, 1.2)
        assert response.raw == pytest.approx(1.2 + 2.0 * model.beta, abs=1e-12)

    def test_unclamped_response_satisfies_indifference(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, require_kessler_risk=True)
            analysis = analyze_treaty(scenario, taxes, CLOSED_FORM)
            for coeff, response in zip(analysis.coefficients, analysis.responses):
                if response.clamped or analysis.qbar == 0.0:
                    continue
                residual = (
                    coeff.marginal_benefit(analysis.qbar)
                    - 0.5 * scenario.abatement_cost * (analysis.qbar - response.q_rest) ** 2
                    - coeff.marginal_benefit(response.q_rest)
                    + scenario.catastrophe_damages
                )
                assert abs(residual) < 1e-9


class TestNashProfiles:
    def test_sym2_symmetric_profile_certified(self):
        analysis = analyze_treaty(SYM2, ZERO2, MODEL_DERIVED)
        assert analysis.qbar == pytest.approx(1.2, abs=1e-9)
        assert analysis.no_defection_bound == pytest.approx(
            -2.0 / 49.0 * 0.6 + 0.18, abs=1e-9
        )
        assert analysis.averting_sustainable
        assert analysis.symmetric_profile_is_nash
        assert any(
            all(abs(q - 0.6) < 1e-9 for q in profile.contributions)
            for profile in analysis.nash_equilibria
        )

    def test_sym2_closed_form_bound(self):
        analysis = analyze_treaty(SYM2, ZERO2, CLOSED_FORM, qbar=1.2)
        assert analysis.no_defection_bound == pytest.approx(
            125.0 / 18900.0 * 0.6 + 0.18, abs=1e-12
        )
        assert analysis.averting_sustainable

    def test_sym2_zero_profile_fails_solo_aversion(self):
        # With damages this large a lone nation prefers averting the
        # catastrophe single-handedly, so the all-zero profile cannot be
        # an equilibrium; the deviation search names the pivotal move.
        analysis = analyze_treaty(SYM2, ZERO2, MODEL_DERIVED)
        assert not analysis.zero_profile_is_nash
        report = deviation_search_abatement(
            SYM2,
            analysis.coefficients,
            AbatementProfile.from_contributions((0.0, 0.0)),
            analysis.qbar,
        )
        assert not report.passed
        party, deviation, gain = report.counterexamples[0]
        assert deviation == pytest.approx(1.2, abs=1e-3)
        assert gain > 0.3

    def test_tiny_damages_keep_only_zero_profile(self):
        timid = replace(SYM2, catastrophe_damages=0.01)
        analysis = analyze_treaty(timid, ZERO2, CLOSED_FORM)
        assert not analysis.averting_sustainable
        assert not analysis.symmetric_profile_is_nash
        assert analysis.zero_profile_is_nash
        assert len(analysis.nash_equilibria) == 1
        assert analysis.nash_equilibria[0].total == 0.0

    def test_model_variant_tiny_damages_has_no_pure_profile(self):
        # The model-derived slope is negative for SYM2, so even the zero
        # profile admits a small profitable contribution once damages are
        # too small to motivate solo aversion.
        timid = replace(SYM2, catastrophe_damages=0.01)
        analysis = analyze_treaty(timid, ZERO2, MODEL_DERIVED)
        assert not analysis.zero_profile_is_nash
        assert analysis.nash_equilibria == ()

    def test_listed_profiles_always_certified(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, require_kessler_risk=True)
            for variant in (MODEL_DERIVED, CLOSED_FORM):
                analysis = analyze_treaty(scenario, taxes, variant)
                for profile in analysis.nash_equilibria:
                    report = deviation_search_abatement(
                        scenario, analysis.coefficients, profile, analysis.qbar
                    )
                    assert report.passed


class TestSelfEnforcement:
    def test_sym2_model_variant(self):
        analysis = analyze_treaty(SYM2, ZERO2, MODEL_DERIVED)
        beta = analysis.coefficients[0].beta
        rhs = math.sqrt(beta**2 + 2.0) - beta
        assert rhs == pytest.approx(1.4556187765254698, abs=1e-9)
        assert analysis.per_party_burden < rhs
        assert analysis.self_enforcing
        assert all(analysis.payoff_prefers_treaty)

    def test_sym2_closed_form_variant(self):
        analysis = analyze_treaty(SYM2, ZERO2, CLOSED_FORM, qbar=1.2)
        beta = analysis.coefficients[0].beta
        rhs = math.sqrt(beta**2 + 2.0) - beta
        assert rhs == pytest.approx(1.4076152707281893, abs=1e-9)
        assert analysis.self_enforcing

    def test_expensive_abatement_breaks_enforcement(self):
        costly = replace(SYM2, abatement_cost=100.0)
        analysis = analyze_treaty(costly, ZERO2, CLOSED_FORM)
        beta = analysis.coefficients[0].beta
        rhs = (math.sqrt(beta**2 + 200.0) - beta) / 100.0
        assert rhs < analysis.per_party_burden
        assert not analysis.self_enforcing


# Pool game 40 of the benchmark's regulate inputs, written out.
GAME_40 = Scenario(
    n_markets=2,
    n_sectors=2,
    prices=(4.213338983985405, 7.36918525223694),
    costs=(7.06463134190936, 0.8572707966657303),
    collision_coeff=0.14124506760235153,
    debris_per_sat=0.9057380867490437,
    legacy_debris=0.08328684297076538,
    catastrophe_threshold=3.552650031385889,
    catastrophe_damages=1.776954646799185,
    abatement_cost=2.453189855185395,
)
GAME_40_TAXES = TaxSchedule(
    ((0.23255666399909727, 0.14355076728278823), (0.292483933870707, 0.118737432638447))
)
VERDICTS = (
    "zero_profile_is_nash",
    "symmetric_profile_is_nash",
    "averting_sustainable",
    "condition27",
    "self_enforcing",
    "payoff_prefers_treaty",
)


class TestCurrencyUnit:
    def test_only_the_closed_form_verdicts_depend_on_it(self):
        # Prices, costs, X and c in a currency worth half as much. The
        # model-derived alpha and beta are welfare, which doubles with the
        # rest; the closed-form alpha carries no money unit, so against the
        # doubled X and c its verdicts move.
        doubled = replace(
            GAME_40,
            prices=tuple(2.0 * p for p in GAME_40.prices),
            costs=tuple(2.0 * m for m in GAME_40.costs),
            catastrophe_damages=2.0 * GAME_40.catastrophe_damages,
            abatement_cost=2.0 * GAME_40.abatement_cost,
        )
        (model, closed), (model_doubled, closed_doubled) = (
            [{name: getattr(analysis, name) for name in VERDICTS} for analysis in pair]
            for pair in (
                treaty._both_variants(GAME_40, GAME_40_TAXES),
                treaty._both_variants(doubled, GAME_40_TAXES),
            )
        )
        assert model_doubled == model
        assert closed == dict(
            zip(VERDICTS, (True, False, False, (True, False), False, (True, False)))
        )
        assert closed_doubled == dict(
            zip(VERDICTS, (True, True, True, (True, True), True, (True, True)))
        )


class TestBetaSensitivity:
    def test_sym2_fd_signs(self):
        # Finite differences of the closed form: both own-revenue
        # directions and the cost fall, but the other player's taxes RAISE
        # beta (d ln beta_i / d rev_j = -kd/den_j - kd*m_i/shared < 0).
        report = beta_sensitivity(SYM2, ZERO2, 0)
        assert report.entry("tax_own_home").finite_difference < 0.0
        assert report.entry("tax_own_away").finite_difference < 0.0
        assert report.entry("own_cost").finite_difference < 0.0
        assert report.entry("tax_other_home").finite_difference > 0.0
        assert report.entry("tax_other_away").finite_difference > 0.0
        assert not any(entry.flagged for entry in report.entries)
        # Desk values at SYM2 (rev = 2, den = 1.2, shared = 1.4): beta =
        # 125/18900, d ln beta / d rev_i = 53/42, d ln beta / d rev_j = -13/84
        # and d ln beta / d m_i = -53/21.
        own = -6625.0 / 793800.0
        other = 8125.0 / 7938000.0
        for name, expect in (
            ("tax_own_home", own),
            ("tax_own_away", own),
            ("tax_other_home", other),
            ("tax_other_away", other),
            ("own_cost", -6625.0 / 396900.0),
        ):
            assert report.entry(name).analytic == pytest.approx(expect, rel=0.0, abs=1e-12)

    def test_fully_taxed_other_sector_keeps_the_own_slopes(self):
        # rho_rest = 0: beta = 1/108 and g_own = 5/4 stay positive, so the
        # own entries match their finite differences; the other-tax
        # entries sit on the kink where rho_rest leaves the sum.
        report = beta_sensitivity(SYM2, TaxSchedule(((0.0, 0.0), (1.0, 1.0))), 0)
        for name in ("tax_own_home", "tax_own_away", "own_cost"):
            assert not report.entry(name).flagged, name
        own = report.entry("tax_own_home")
        assert own.finite_difference == pytest.approx(-0.011574, abs=1e-6)
        assert own.analytic == pytest.approx(-5.0 / 432.0, rel=1e-12)
        assert report.entry("own_cost").analytic == pytest.approx(-5.0 / 216.0, rel=1e-12)
        assert report.entry("tax_other_home").flagged
        assert report.entry("tax_other_away").flagged

    def test_fully_taxed_own_sector_is_not_flagged(self):
        # rho_own = 0: beta ~ rho_own^3 has zero slope, and the central
        # differences of the own taxes read only their truncation error,
        # about -1.4e-15, which doubling the step quadruples.
        report = beta_sensitivity(SYM2, TaxSchedule(((0.0, 0.0), (1.0, 1.0))), 1)
        for name in ("tax_own_home", "tax_own_away"):
            entry = report.entry(name)
            assert -1e-14 < entry.finite_difference < 0.0
            assert entry.analytic == 0.0
            assert entry.sign_agrees and not entry.flagged, name
        assert not any(entry.flagged for entry in report.entries)

    def test_no_collisions_zero_everything(self):
        report = beta_sensitivity(NO_COLLISIONS, ZERO2, 0)
        for entry in report.entries:
            assert entry.finite_difference == 0.0
            assert entry.analytic == 0.0

    def test_requires_two_sectors(self):
        with pytest.raises(ValueError):
            beta_sensitivity(SOLO, TaxSchedule.zeros(1, 1), 0)


class TestTreatySupport:
    def test_sym2_slopes(self):
        report = treaty_support_check(SYM2, ZERO2, 0, 1)
        assert report.aversion_slope < 0.0
        assert report.defection_slope > 0.0
        assert report.side_condition

    def test_no_collisions_flat_slopes(self):
        relaxed = replace(NO_COLLISIONS, catastrophe_threshold=10.0)
        report = treaty_support_check(relaxed, ZERO2, 0, 1)
        assert report.aversion_slope == pytest.approx(0.0, abs=1e-12)
        assert report.defection_slope == pytest.approx(0.0, abs=1e-12)


# -- the hand-derived incentive scans and beta slopes the best-reply rule and
# the rho-form replaced, kept as references ---------------------------------
def reference_zero_profile_gain(scenario, coeff, qbar):
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    if qbar <= 0.0:
        return 0.0
    gains = [damages - coeff.beta * qbar - 0.5 * c * qbar**2]  # avert alone
    if coeff.beta < 0.0:
        q = min(-coeff.beta / c, qbar)
        gains.append(-coeff.beta * q - 0.5 * c * q**2)         # free-ride uphill
    return max(0.0, *gains)


def reference_symmetric_deviation_gain(scenario, coeff, qbar, parties):
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    if qbar <= 0.0:
        return 0.0
    burden = qbar / parties
    candidates = [0.0]
    if coeff.beta < 0.0:
        candidates.append(min(-coeff.beta / c, burden))
    best = 0.0
    for q in candidates:
        if q >= burden:
            continue
        best = max(best, coeff.beta * (burden - q) - damages + 0.5 * c * (burden**2 - q**2))
    return best


def reference_prefers_treaty(scenario, coeff, response, qbar, burden):
    c = scenario.abatement_cost
    in_treaty = coeff.marginal_benefit(qbar) - 0.5 * c * burden**2
    best_defection = coeff.marginal_benefit(qbar) - 0.5 * c * (qbar - response.q_rest) ** 2
    room = qbar - response.q_rest
    if room > 0.0:
        free_ride_qs = [0.0]
        if coeff.beta < 0.0:
            free_ride_qs.append(min(-coeff.beta / c, room * (1.0 - 1e-12)))
        for q in free_ride_qs:
            if q < room:
                value = (
                    coeff.marginal_benefit(response.q_rest + q)
                    - scenario.catastrophe_damages
                    - 0.5 * c * q**2
                )
                best_defection = max(best_defection, value)
    return bool(in_treaty >= best_defection - 1e-12)


def reference_flags(scenario, analysis):
    """The zero-profile, equal-burden and prefers-treaty flags by the old scans."""
    qbar, burden = analysis.qbar, analysis.per_party_burden
    parties = scenario.treaty_parties
    coefficients = analysis.coefficients
    return (
        all(reference_zero_profile_gain(scenario, k, qbar) <= 1e-9 for k in coefficients),
        all(
            reference_symmetric_deviation_gain(scenario, k, qbar, parties) <= 1e-9
            for k in coefficients
        ),
        tuple(
            reference_prefers_treaty(scenario, k, response, qbar, burden)
            for k, response in zip(coefficients, analysis.responses)
        ),
    )


def reference_beta_slopes(scenario, taxes, party):
    """Closed-form beta derivatives in the rev/den/shared form."""
    i, j = party, 1 - party
    k = scenario.collision_coeff
    d = scenario.debris_per_sat
    kd = k * d
    m_i, m_j = scenario.costs[i], scenario.costs[j]
    rates = taxes.as_array
    rev_i = float((1.0 - rates[i]) @ scenario.price_array)
    rev_j = float((1.0 - rates[j]) @ scenario.price_array)
    den_i = kd * rev_i + m_i
    den_j = kd * rev_j + m_j
    shared = kd * m_j * rev_i + m_i * den_j
    t_own = t_other = d_cost = 0.0
    if rev_i > 0.0:
        common = 3.0 * m_i * den_j + kd * rev_i * (3.0 * m_j + kd * rev_j)
        t_own = (
            2.0 * k**3 * d * m_i * m_j**2 * rev_i**2 * common
            / (den_i**3 * den_j * shared**2)
        )
        d_cost = -2.0 * k**3 * d * m_j**2 * rev_i**3 * common / (den_i**3 * den_j * shared**2)
    if rev_i > 0.0 and rev_j > 0.0:
        t_other = (
            -2.0 * k**4 * d**2 * m_j**2 * rev_i**3
            * (kd * m_j * rev_i + 2.0 * m_i * den_j)
            / ((den_i * den_j * shared) ** 2)
        )
    return {
        "tax_own_home": -scenario.prices[i] * t_own,
        "tax_own_away": -scenario.prices[j] * t_own,
        "tax_other_home": -scenario.prices[i] * t_other,
        "tax_other_away": -scenario.prices[j] * t_other,
        "own_cost": d_cost,
    }


class TestAgainstReferences:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_best_reply_flags_match_the_scans(self, seed, wide, with_taxes):
        # Half the draws widen damages, abatement cost and party counts so
        # every flag takes both values.
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(
            rng, sector_range=(1, 5), with_taxes=with_taxes, require_kessler_risk=True
        )
        if wide:
            scenario = replace(
                scenario,
                catastrophe_damages=float(10 ** rng.uniform(-3.0, 1.5)),
                abatement_cost=float(10 ** rng.uniform(-2.0, 2.0)),
                treaty_parties=int(rng.integers(1, 7)),
            )
        for variant in (MODEL_DERIVED, CLOSED_FORM):
            analysis = analyze_treaty(scenario, taxes, variant)
            assert (
                analysis.zero_profile_is_nash,
                analysis.symmetric_profile_is_nash,
                analysis.payoff_prefers_treaty,
            ) == reference_flags(scenario, analysis)

    def test_sym2_flags_match_the_scans(self):
        timid = replace(SYM2, catastrophe_damages=0.01)
        costly = replace(SYM2, abatement_cost=100.0)
        for scenario in (SYM2, timid, costly):
            for variant in (MODEL_DERIVED, CLOSED_FORM):
                analysis = analyze_treaty(scenario, ZERO2, variant)
                assert (
                    analysis.zero_profile_is_nash,
                    analysis.symmetric_profile_is_nash,
                    analysis.payoff_prefers_treaty,
                ) == reference_flags(scenario, analysis)
            # qbar <= 0 keeps both candidate profiles certified.
            for qbar in (0.0, -0.5):
                analysis = analyze_treaty(scenario, ZERO2, MODEL_DERIVED, qbar=qbar)
                assert analysis.zero_profile_is_nash and analysis.symmetric_profile_is_nash
                assert analysis.payoff_prefers_treaty == reference_flags(scenario, analysis)[2]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rho_form_beta_slopes_match_the_rev_den_shared_form(self, seed, party, deny_rest):
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(
            rng, n_sectors=2, with_taxes=True, collision_range=(0.0, 0.4)
        )
        if deny_rest:
            # A fully taxed other sector: both forms keep the own slopes
            # and report zero other-tax slopes, the kink's slope from above.
            other = 1 - party
            for market in range(scenario.n_markets):
                taxes = taxes.with_rate(other, market, 1.0)
        reference = reference_beta_slopes(scenario, taxes, party)
        for entry in beta_sensitivity(scenario, taxes, party).entries:
            expect = reference[entry.name]
            assert abs(entry.analytic - expect) <= 1e-12 * abs(expect), entry.name


# -- the per-party coefficient loop and per-variant analysis the shared
# coefficient pass replaced, kept as references ------------------------------
def reference_model_coefficients(scenario, taxes, party):
    """One party's model-derived pair from its own Q = 0 solve and probe."""
    if party >= scenario.n_markets:
        return BenefitCoefficients(0.0, 0.0, MODEL_DERIVED, 0.0)
    base = solve_equilibrium(scenario, taxes, 0.0)
    k = scenario.collision_coeff
    phi0 = 1.0 - k * scenario.legacy_debris
    if phi0 == 0.0 and any(x > 0.0 for x in base.r):
        raise ActiveSetChangeError(
            "sectors pinned at zero abatement (phi0 == 0) enter once abatement "
            "is positive; the welfare curve is only piecewise quadratic there"
        )
    kept = (1.0 - taxes.as_array[:, party]) @ base.fleet_array
    w0 = base.debris.survival * scenario.prices[party] * kept
    if k == 0.0 or w0 == 0.0:
        alpha = beta = 0.0
    else:
        alpha = 2.0 * k * w0 / phi0
        beta = -2.0 * k * k * w0 / phi0**2
    _, rho, _, kd = _rho_form(scenario, taxes)
    _, share = _share(rho, 1.0, kd)
    q = 0.5 * min(1.0, base.debris.stock * share)
    predicted = w0 + alpha * q - 0.5 * beta * q * q
    residual = abs(national_welfare(scenario, taxes, q).welfare[party] - predicted)
    return BenefitCoefficients(float(alpha), float(beta), MODEL_DERIVED, float(residual))


def reference_divergence(scenario, taxes, party):
    model = reference_model_coefficients(scenario, taxes, party)
    closed = benefit_coefficients(scenario, taxes, party, CLOSED_FORM)
    alpha_gap = abs(model.alpha - closed.alpha)
    beta_gap = abs(model.beta - closed.beta)
    return CoefficientDivergence(
        party=party,
        model=model,
        closed_form=closed,
        alpha_gap=alpha_gap,
        beta_gap=beta_gap,
        agree=bool(alpha_gap <= 1e-6 and beta_gap <= 1e-6),
    )


def reference_analyze_treaty(scenario, taxes, variant=MODEL_DERIVED, qbar=None):
    """``required_abatement`` plus a divergence record per party, per variant.

    The game analysis that follows the coefficients did not change, so the
    reference hands its records to the same core.
    """
    parties = scenario.treaty_parties
    if qbar is None:
        qbar = required_abatement(scenario, taxes)
    if variant not in (MODEL_DERIVED, CLOSED_FORM):
        raise ValueError(f"unknown coefficient variant {variant!r}")
    divergences = tuple(reference_divergence(scenario, taxes, p) for p in range(parties))
    return treaty._analysis(scenario, variant, qbar, divergences)


def reference_both_variants(scenario, taxes):
    model = reference_analyze_treaty(scenario, taxes, MODEL_DERIVED)
    return model, reference_analyze_treaty(scenario, taxes, CLOSED_FORM, qbar=model.qbar)


def treaty_outcome(function, *args):
    """The result's repr (so float types and -0.0 count), or the error's class and message."""
    try:
        result = function(*args)
    except Exception as error:  # ValueError and ZeroDivisionError count as well
        return (type(error).__name__, str(error)), None
    return repr(result), result


def assert_matches_reference(scenario, taxes, qbar=None):
    for variant in (MODEL_DERIVED, CLOSED_FORM, "bogus"):
        got, result = treaty_outcome(analyze_treaty, scenario, taxes, variant, qbar)
        expect, reference = treaty_outcome(reference_analyze_treaty, scenario, taxes, variant, qbar)
        assert got == expect
        assert result == reference
    if qbar is None:
        got, result = treaty_outcome(treaty._both_variants, scenario, taxes)
        expect, reference = treaty_outcome(reference_both_variants, scenario, taxes)
        assert got == expect
        assert result == reference
    for party in range(scenario.treaty_parties + 1):
        assert treaty_outcome(coefficient_divergence, scenario, taxes, party)[0] == (
            treaty_outcome(reference_divergence, scenario, taxes, party)[0]
        )
        assert treaty_outcome(benefit_coefficients, scenario, taxes, party)[0] == (
            treaty_outcome(reference_model_coefficients, scenario, taxes, party)[0]
        )


@st.composite
def treaty_inputs(draw):
    """A scenario, a schedule and maybe a given qbar, drawn wide.

    Parties run above and below the market count; markets may outnumber
    sectors; k may be 0; one family sits at phi0 == 0; rates are often 0
    or 1, so whole markets or sectors are taxed away.
    """
    n_s = draw(st.integers(1, 3))
    n_m = draw(st.integers(n_s, 4))
    log = st.floats(-2.0, 2.0)
    if draw(st.integers(0, 4)) == 0:
        k, legacy = 0.1, 10.0                       # phi0 == 0.0 exactly
    else:
        k = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        legacy = draw(st.floats(0.0, 1.2)) / max(k, 0.1)
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=tuple(math.exp(draw(log)) for _ in range(n_m)),
        costs=tuple(math.exp(draw(log)) for _ in range(n_s)),
        collision_coeff=k,
        debris_per_sat=math.exp(draw(st.floats(-1.0, 1.0))),
        legacy_debris=legacy,
        catastrophe_threshold=draw(st.floats(0.1, 5.0)),
        catastrophe_damages=draw(st.floats(0.0, 5.0)),
        abatement_cost=draw(st.floats(0.1, 5.0)),
        treaty_parties=draw(st.integers(1, n_m + 2)),
    )
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    taxes = TaxSchedule.from_array(
        [[draw(rate) for _ in range(n_m)] for _ in range(n_s)]
    )
    qbar = draw(st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 5.0)))
    return scenario, taxes, qbar


class TestSharedCoefficientPass:
    @given(treaty_inputs())
    @settings(max_examples=300, deadline=None)
    def test_analyses_equal_the_per_party_reference(self, case):
        assert_matches_reference(*case)

    def test_edges_equal_the_per_party_reference(self):
        wide = Scenario(3, 2, (1.0, 2.0, 0.5), (1.0, 1.5), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
        wide_taxes = TaxSchedule.from_array([[0.2, 0.0, 0.5], [0.0, 0.3, 0.0]])
        cases = [
            (SYM2, ZERO2, None),
            (HIDEB, ZERO2, None),
            # treaty parties below and above the market count
            (replace(SYM2, treaty_parties=1), ZERO2, None),
            (replace(SYM2, treaty_parties=4), ZERO2, None),
            (wide, wide_taxes, None),
            (replace(wide, treaty_parties=2), wide_taxes, None),
            (replace(wide, treaty_parties=5), wide_taxes, None),
            # k = 0
            (NO_COLLISIONS, ZERO2, None),
            # market 0 keeps nothing (w0 = 0), and every sector taxed away
            (SYM2, TaxSchedule.from_array([[1.0, 0.0], [1.0, 0.0]]), None),
            (SYM2, TaxSchedule.from_array([[1.0, 1.0], [1.0, 1.0]]), None),
            (SYM2, TaxSchedule.from_array([[0.0, 0.0], [1.0, 1.0]]), None),
            # a given qbar
            (SYM2, ZERO2, 0.0),
            (SYM2, ZERO2, 0.7),
            (SYM2, ZERO2, -0.5),
            (replace(wide, treaty_parties=5), wide_taxes, 2.5),
            # phi0 == 0 raises, with and without a given qbar
            (replace(SYM2, legacy_debris=10.0), ZERO2, None),
            (replace(SYM2, legacy_debris=10.0), ZERO2, 1.0),
            (replace(SYM2, legacy_debris=10.0), TaxSchedule.from_array([[1.0, 1.0], [1.0, 1.0]]), None),
            # survival below 0 at Q = 0: the solve raises before the variant
            # check unless qbar is given
            (replace(SYM2, legacy_debris=20.0), ZERO2, None),
            (replace(SYM2, legacy_debris=20.0), ZERO2, 1.0),
            # the fit_residual probe's stock stays valid
            (replace(SYM2, prices=(0.05, 0.05)), ZERO2, None),
        ]
        for scenario, taxes, qbar in cases:
            assert_matches_reference(scenario, taxes, qbar)
        got, _ = treaty_outcome(analyze_treaty, replace(SYM2, legacy_debris=10.0), ZERO2)
        assert got[0] == "ActiveSetChangeError" and "phi0 == 0" in got[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["treaty", "--scenario", str(SCENARIOS / "sym2.json")],
            ["treaty", "--scenario", str(SCENARIOS / "sym2.json"), "--format", "csv"],
            ["treaty", "--scenario", str(SCENARIOS / "solo.json")],
            ["treaty", "--scenario", str(SCENARIOS / "solo.json"), "--format", "csv"],
            ["sweep", "--scenario", str(SCENARIOS / "sym2.json"),
             "--sweep", "scenario.D0:0:20:200", "--format", "csv"],
            ["sweep", "--scenario", str(SCENARIOS / "sym2.json"),
             "--sweep", "scenario.D0:0:20:200", "--format", "json"],
            ["sweep", "--scenario", str(SCENARIOS / "sym2.json"),
             "--sweep", "scenario.D0:0:20:3", "--format", "csv"],
        ],
    )
    def test_cli_output_is_byte_identical(self, argv, capsys, monkeypatch):
        code = main(argv)
        shared = capsys.readouterr()
        monkeypatch.setattr(cli, "_both_variants", reference_both_variants)
        assert main(argv) == code == 0
        reference = capsys.readouterr()
        assert (shared.out, shared.err) == (reference.out, reference.err)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_treaty_checkers_equal_the_per_variant_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        bundles = _batch(
            rng, 10, with_taxes=True, require_kessler_risk=True, sector_range=(1, 4)
        )
        checkers = (verification.check_treaty_consistency, verification.check_nash_certification)
        shared = [repr(checker(bundles)) for checker in checkers]
        monkeypatch.setattr(verification, "_both_variants", reference_both_variants)
        assert shared == [repr(checker(bundles)) for checker in checkers]


class TestCallCounts:
    """One analysis solves the equilibrium twice; each checker analyses a bundle
    once, and run_verification analyses each treaty bundle once for both."""

    @staticmethod
    def count(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_one_analysis_makes_two_solves(self, monkeypatch):
        calls = {"solve_equilibrium": 0}
        for module in (open_access, regulation, treaty):
            self.count(monkeypatch, module, "solve_equilibrium", calls)
        wide = Scenario(3, 2, (1.0, 2.0, 0.5), (1.0, 1.5), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
        for scenario, taxes in ((SYM2, ZERO2), (replace(wide, treaty_parties=5), TaxSchedule.zeros(2, 3))):
            for variant in (MODEL_DERIVED, CLOSED_FORM):
                for qbar in (None, 0.5):
                    calls["solve_equilibrium"] = 0
                    analyze_treaty(scenario, taxes, variant, qbar)
                    assert calls["solve_equilibrium"] == 2
            calls["solve_equilibrium"] = 0
            treaty._both_variants(scenario, taxes)
            assert calls["solve_equilibrium"] == 2

    def test_each_treaty_checker_analyses_a_bundle_once(self, monkeypatch):
        calls = {"analyze_treaty": 0}
        self.count(monkeypatch, treaty, "analyze_treaty", calls)
        bundles = _batch(
            np.random.default_rng(3), 6, with_taxes=True, require_kessler_risk=True,
            sector_range=(1, 4),
        )
        for checker in (verification.check_treaty_consistency, verification.check_nash_certification):
            calls["analyze_treaty"] = 0
            checker(bundles)
            assert calls["analyze_treaty"] == len(bundles)

    @staticmethod
    def verification_with_standalone_checkers(monkeypatch):
        """run_verification's two treaty reports, and both public checkers'
        reports on its treaty batch, each caught as run_verification does."""
        batches = []
        original = verification._batch

        def recorded(*args, **kwargs):
            batches.append(original(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(verification, "_batch", recorded)
        reports = verification.run_verification(SYM2, ZERO2, 0.0, seed=3, random_count=40)
        treaty_batch = batches[3]
        standalone = []
        for checker, name in (
            (verification.check_treaty_consistency, "treaty_condition_consistency"),
            (verification.check_nash_certification, "nash_certification"),
        ):
            try:
                standalone.append(checker(treaty_batch))
            except OrbitUseError as error:
                standalone.append(
                    verification._report(name, float("nan"), [(type(error).__name__, str(error))])
                )
        return reports[7:], standalone, treaty_batch

    def test_run_verification_analyses_each_treaty_bundle_once(self, monkeypatch):
        calls = {"analyze_treaty": 0}
        self.count(monkeypatch, treaty, "analyze_treaty", calls)
        verification.run_verification(SYM2, ZERO2, 0.0, seed=3, random_count=40)
        assert calls["analyze_treaty"] == 20

    def test_shared_analyses_give_the_standalone_reports(self, monkeypatch):
        shared, standalone, _ = self.verification_with_standalone_checkers(monkeypatch)
        assert [report.target for report in shared] == [
            "treaty_condition_consistency", "nash_certification",
        ]
        assert [repr(report) for report in shared] == [repr(report) for report in standalone]

    def test_an_analysis_error_gives_both_checkers_the_same_nan_report(self, monkeypatch):
        # The fifth treaty bundle's analysis raises, in the shared pass and in
        # each standalone checker alike.
        seen = []
        original = treaty._both_variants

        def failing(scenario, taxes):
            if scenario not in seen:
                seen.append(scenario)
            if seen.index(scenario) == 4:
                raise OrbitUseError("no analysis for this bundle")
            return original(scenario, taxes)

        monkeypatch.setattr(verification, "_both_variants", failing)
        shared, standalone, treaty_batch = self.verification_with_standalone_checkers(monkeypatch)
        assert seen[:5] == [bundle[0] for bundle in treaty_batch[:5]]
        for report in shared:
            assert math.isnan(report.max_residual) and not report.passed
            assert report.counterexamples == (("OrbitUseError", "no analysis for this bundle"),)
        assert [repr(report) for report in shared] == [repr(report) for report in standalone]


# -- the defector's shortfall in its three former spellings and the two-table
# beta_sensitivity, kept as references -----------------------------------------
def reference_treaty_response(scenario, coefficients, qbar):
    c = scenario.abatement_cost
    beta = coefficients.beta
    raw = qbar + (beta - math.sqrt(beta**2 + 2.0 * c * scenario.catastrophe_damages)) / c
    clamped_value = min(max(raw, 0.0), qbar)
    return TreatyResponse(raw=float(raw), q_rest=float(clamped_value), clamped=bool(raw < 0.0))


def reference_condition27(scenario, analysis):
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    return tuple(
        bool(
            analysis.per_party_burden
            < (math.sqrt(coeff.beta**2 + 2.0 * c * damages) - coeff.beta) / c
        )
        for coeff in analysis.coefficients
    )


def reference_treaty_support_check(scenario, taxes, party, market):
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    parties = scenario.treaty_parties

    def conditions(rate):
        schedule = taxes.with_rate(party, market, rate)
        beta = treaty._closed_form_coefficients(scenario, schedule, party).beta
        burden = required_abatement(scenario, schedule) / parties
        return np.array([
            beta * burden + 0.5 * c * burden**2,
            -burden - (beta - math.sqrt(beta**2 + 2.0 * c * damages)) / c,
        ])

    aversion_slope, defection_slope = finite_difference(conditions, taxes.rate(party, market))
    beta = treaty._closed_form_coefficients(scenario, taxes, party).beta
    side = math.sqrt(beta**2 + 2.0 * c * damages) - c * beta > 0.0
    return TreatySupportReport(
        aversion_slope=float(aversion_slope),
        defection_slope=float(defection_slope),
        side_condition=bool(side),
    )


def reference_resolution(func, x):
    h = 1e-6 * max(1.0, abs(x))
    far_lo, lo, hi, far_hi = (func(x + step * h) for step in (-2.0, -1.0, 1.0, 2.0))
    narrow = (hi - lo) / (2.0 * h)
    wide = (far_hi - far_lo) / (4.0 * h)
    noise = np.finfo(float).eps * max(abs(far_lo), abs(lo), abs(hi), abs(far_hi)) / h
    return abs(wide - narrow) + noise


def reference_beta_sensitivity(scenario, taxes, party):
    """The formulas and the stencils in two tables; each entry's difference
    from ``finite_difference`` (two evaluations) and its floor from four more."""
    i, j = party, 1 - party
    _, rho, _, kd = _rho_form(scenario, taxes)
    beta = treaty._closed_form_coefficients(scenario, taxes, i).beta
    g_own = g_rest = 0.0
    if rho[i] > 0.0:
        share = 1.0 + kd * (rho[i] + rho[j])
        g_own = 3.0 / rho[i] - 2.0 * kd / (1.0 + kd * rho[i]) - kd / share
        if rho[j] > 0.0:
            g_rest = -kd / (1.0 + kd * rho[j]) - kd / share
    p, m = scenario.prices, scenario.costs
    analytic = {
        "tax_own_home": -beta * g_own * p[i] / m[i],
        "tax_own_away": -beta * g_own * p[j] / m[i],
        "tax_other_home": -beta * g_rest * p[i] / m[j],
        "tax_other_away": -beta * g_rest * p[j] / m[j],
        "own_cost": -beta * g_own * rho[i] / m[i],
    }

    def beta_at_rate(sector, market):
        return lambda rate: treaty._closed_form_coefficients(
            scenario, taxes.with_rate(sector, market, rate), i
        ).beta

    def beta_at_cost(cost):
        costs = list(scenario.costs)
        costs[i] = cost
        return treaty._closed_form_coefficients(replace(scenario, costs=tuple(costs)), taxes, i).beta

    stencils = {
        "tax_own_home": (beta_at_rate(i, i), taxes.rate(i, i)),
        "tax_own_away": (beta_at_rate(i, j), taxes.rate(i, j)),
        "tax_other_home": (beta_at_rate(j, i), taxes.rate(j, i)),
        "tax_other_away": (beta_at_rate(j, j), taxes.rate(j, j)),
        "own_cost": (beta_at_cost, scenario.costs[i]),
    }
    entries = []
    for name, (beta_at, x) in stencils.items():
        fd_value = finite_difference(beta_at, x)
        formula = analytic[name]
        resolved = fd_value if abs(fd_value) > reference_resolution(beta_at, x) else 0.0
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


def two_sector_draws(seeds):
    """Seeded two-sector schedules: as drawn, with k = 0, and with either
    sector fully taxed (the rho = 0 kinks of the closed-form beta)."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(
            rng, n_sectors=2, with_taxes=True, require_kessler_risk=bool(seed % 2)
        )
        yield scenario, taxes
        yield replace(scenario, collision_coeff=0.0), taxes
        for sector in (0, 1):
            taxed = taxes
            for market in range(scenario.n_markets):
                taxed = taxed.with_rate(sector, market, 1.0)
            yield scenario, taxed


class TestShortfallAndStencilReferences:
    def test_treaty_results_equal_the_former_spellings(self, monkeypatch):
        for scenario, taxes in two_sector_draws(range(150)):
            for party in range(2):
                assert treaty_outcome(beta_sensitivity, scenario, taxes, party)[0] == (
                    treaty_outcome(reference_beta_sensitivity, scenario, taxes, party)[0]
                )
                for market in range(scenario.n_markets):
                    args = (scenario, taxes, party, market)
                    assert treaty_outcome(treaty_support_check, *args)[0] == (
                        treaty_outcome(reference_treaty_support_check, *args)[0]
                    )
            got, analyses = treaty_outcome(treaty._both_variants, scenario, taxes)
            with monkeypatch.context() as patch:
                patch.setattr(treaty, "treaty_response", reference_treaty_response)
                assert got == treaty_outcome(treaty._both_variants, scenario, taxes)[0]
            for analysis in analyses or ():
                condition27 = reference_condition27(scenario, analysis)
                assert repr(analysis.condition27) == repr(condition27)
                assert analysis.self_enforcing == all(condition27)

    def test_beta_sensitivity_evaluates_beta_four_times_per_entry(self, monkeypatch):
        calls = []
        original = treaty._closed_form_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(treaty, "_closed_form_coefficients", counted)
        beta_sensitivity(SYM2, ZERO2, 0)
        assert len(calls) == 1 + 4 * 5
