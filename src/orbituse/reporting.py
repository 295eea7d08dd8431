"""Scenario file IO, overrides, and report assembly for the CLI.

Scenario files are JSON objects with a ``scenario`` block mirroring the
:class:`~orbituse.scenario.Scenario` fields, an optional ``taxes`` matrix
(default all-zero), and an optional ``abatement`` level (default 0); a
file with any other key is refused. Floats round-trip at full binary
precision. Override keys are dotted: ``scenario.<field>`` (short aliases
accepted), ``tax.<sector>.<market>`` with 1-based indices, and
``abatement``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import OverrideError, ScenarioParseError, ScenarioValidationError
from .scenario import Scenario, TaxSchedule, validate_scenario, validate_taxes

FIELD_ALIASES = {
    "p": "prices",
    "m": "costs",
    "k": "collision_coeff",
    "d": "debris_per_sat",
    "D0": "legacy_debris",
    "Dbar": "catastrophe_threshold",
    "X": "catastrophe_damages",
    "c": "abatement_cost",
    "parties": "treaty_parties",
}

SCENARIO_FIELDS = {field.name for field in fields(Scenario)}


@dataclass
class LoadedBundle:
    scenario: Scenario
    taxes: TaxSchedule
    abatement: float


def _number(value, what: str, error: type[Exception]) -> float:
    """``float(value)``, raising ``error`` where it fails: null, a list, text."""
    try:
        return float(value)
    except (TypeError, ValueError) as cause:
        raise error(f"{what} must be a number, got {value!r}") from cause


def _count(value, name: str) -> int:
    """``int(value)``; a number that is not whole is a validation error, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioValidationError([f"{name} must be a whole number, got {value!r}"])
    return int(value)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw:
        try:
            return [float(part) for part in raw.split(",")]
        except ValueError as error:
            raise OverrideError(f"cannot parse list value {raw!r}") from error
    raise OverrideError(f"cannot parse value {raw!r}")


def _apply_override(data: dict, tax_overrides: list, key: str, raw_value: str) -> None:
    value = _parse_value(raw_value)
    parts = key.split(".")
    if parts[0] == "scenario" and len(parts) == 2:
        field = FIELD_ALIASES.get(parts[1], parts[1])
        if field not in SCENARIO_FIELDS:
            raise OverrideError(f"unknown scenario field {parts[1]!r}")
        data.setdefault("scenario", {})[field] = value
        return
    if parts[0] == "tax" and len(parts) == 3:
        try:
            sector, market = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError as error:
            raise OverrideError(f"tax override indices must be integers: {key!r}") from error
        if sector < 0 or market < 0:
            raise OverrideError(f"tax override indices are 1-based: {key!r}")
        rate = _number(value, key, OverrideError)
        tax_overrides.append((sector, market, rate))
        return
    if parts[0] == "abatement" and len(parts) == 1:
        data["abatement"] = _number(value, key, OverrideError)
        return
    raise OverrideError(f"unknown override key {key!r}")


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> LoadedBundle:
    """Load, override, and validate one scenario bundle."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as error:
        raise ScenarioParseError(f"scenario file not found: {path}") from error
    except json.JSONDecodeError as error:
        raise ScenarioParseError(f"malformed JSON in {path}: {error}") from error
    if not isinstance(data, dict) or not isinstance(data.get("scenario"), dict):
        raise ScenarioParseError(f"{path} must contain a 'scenario' object")
    unknown = set(data) - {"scenario", "taxes", "abatement"}
    if unknown:
        raise ScenarioParseError(f"{path} has unknown top-level keys: {sorted(unknown)}")
    return _bundle(data, overrides)  # freshly parsed: nothing else holds it


def bundle_from_data(data: dict, overrides: list[str] | None = None) -> LoadedBundle:
    """Apply overrides to an in-memory bundle dict, then validate; ``data``
    is left as it was."""
    return _bundle(json.loads(json.dumps(data)), overrides)  # deep copy, JSON-typed


def _bundle(data: dict, overrides: list[str] | None) -> LoadedBundle:
    """:func:`bundle_from_data` on a JSON-typed dict it may modify."""
    tax_overrides: list[tuple[int, int, float]] = []
    for item in overrides or []:
        if "=" not in item:
            raise OverrideError(f"override {item!r} must look like key=value")
        key, raw_value = item.split("=", 1)
        _apply_override(data, tax_overrides, key.strip(), raw_value.strip())

    block = data["scenario"]
    unknown = set(block) - SCENARIO_FIELDS
    if unknown:
        raise ScenarioParseError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        scenario = Scenario(
            n_markets=_count(block["n_markets"], "n_markets"),
            n_sectors=_count(block["n_sectors"], "n_sectors"),
            prices=tuple(np.atleast_1d(block["prices"]).astype(float)),
            costs=tuple(np.atleast_1d(block["costs"]).astype(float)),
            collision_coeff=float(block["collision_coeff"]),
            debris_per_sat=float(block["debris_per_sat"]),
            legacy_debris=float(block["legacy_debris"]),
            catastrophe_threshold=float(block["catastrophe_threshold"]),
            catastrophe_damages=float(block["catastrophe_damages"]),
            abatement_cost=float(block["abatement_cost"]),
            treaty_parties=(
                _count(block["treaty_parties"], "treaty_parties") if "treaty_parties" in block else None
            ),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ScenarioParseError(f"scenario block incomplete or malformed: {error}") from error

    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)

    if "taxes" in data and data["taxes"] is not None:
        try:
            rates = np.asarray(data["taxes"], dtype=float)
        except (TypeError, ValueError) as error:
            raise ScenarioParseError(f"taxes must be a numeric matrix: {error}") from error
        if rates.ndim > 2:
            raise ScenarioParseError(f"taxes must be a matrix, got {rates.ndim} dimensions")
        taxes = TaxSchedule.from_array(rates)
    else:
        taxes = TaxSchedule.zeros(scenario.n_sectors, scenario.n_markets)
    for sector, market, value in tax_overrides:
        if sector >= scenario.n_sectors or market >= scenario.n_markets:
            raise OverrideError(
                f"tax override ({sector + 1}, {market + 1}) outside the "
                f"{scenario.n_sectors}x{scenario.n_markets} schedule"
            )
        taxes = taxes.with_rate(sector, market, value)
    tax_violations = validate_taxes(scenario, taxes)
    if tax_violations:
        raise ScenarioValidationError(tax_violations)

    abatement = _number(data.get("abatement", 0.0), "abatement", ScenarioParseError)
    if not math.isfinite(abatement):
        raise ScenarioValidationError([f"abatement must be finite, got {abatement}"])
    return LoadedBundle(scenario=scenario, taxes=taxes, abatement=abatement)


def dump_bundle(bundle: LoadedBundle) -> dict:
    """Serializable form of a bundle; load(dump(x)) is value-identical."""
    return {
        # asdict without its deep copy: every field holds numbers, tuples or None.
        "scenario": {field.name: getattr(bundle.scenario, field.name) for field in fields(Scenario)},
        "taxes": [list(row) for row in bundle.taxes.rates],
        "abatement": bundle.abatement,
    }


def equilibrium_report(equilibrium, welfare, flags) -> dict:
    return {
        "fleets": list(equilibrium.fleets),
        "sigma": list(equilibrium.sigma),
        "r": list(equilibrium.r),
        "active": [bool(a) for a in equilibrium.active],
        "debris": {
            "stock": equilibrium.debris.stock,
            "survival": equilibrium.debris.survival,
            "catastrophe": bool(equilibrium.debris.catastrophe),
            "physically_valid": bool(equilibrium.debris.physically_valid),
        },
        "welfare": list(welfare.welfare),
        "gross_value": list(welfare.gross_value),
        "assumptions": {
            "no_crowding_out": [bool(f) for f in flags.no_crowding_out],
            "bounded_marginal_risk": bool(flags.bounded_marginal_risk),
        },
        "determinant": equilibrium.determinant,
        "max_profit_residual": equilibrium.max_profit_residual,
    }


def coefficients_report(coefficients) -> list[dict]:
    out = []
    for coeff in coefficients:
        entry = {"alpha": coeff.alpha, "beta": coeff.beta, "variant": coeff.variant}
        if coeff.fit_residual is not None:
            entry["fit_residual"] = coeff.fit_residual
        out.append(entry)
    return out


def treaty_report(analysis) -> dict:
    return {
        "variant": analysis.variant,
        "qbar": analysis.qbar,
        "per_party_burden": analysis.per_party_burden,
        "coefficients": coefficients_report(analysis.coefficients),
        "nash_equilibria": [
            {"contributions": list(p.contributions), "total": p.total}
            for p in analysis.nash_equilibria
        ],
        "zero_profile_is_nash": analysis.zero_profile_is_nash,
        "symmetric_profile_is_nash": analysis.symmetric_profile_is_nash,
        "no_defection_bound": analysis.no_defection_bound,
        "averting_sustainable": analysis.averting_sustainable,
        "responses": [asdict(r) for r in analysis.responses],
        "condition27": [bool(c) for c in analysis.condition27],
        "self_enforcing": analysis.self_enforcing,
        "payoff_prefers_treaty": [bool(c) for c in analysis.payoff_prefers_treaty],
    }


def divergence_report(divergences) -> list[dict]:
    return [
        {
            "party": d.party,
            "model": {"alpha": d.model.alpha, "beta": d.model.beta},
            "closed_form": {"alpha": d.closed_form.alpha, "beta": d.closed_form.beta},
            "alpha_gap": d.alpha_gap,
            "beta_gap": d.beta_gap,
            "agree": d.agree,
        }
        for d in divergences
    ]


def format_csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_csv_value(v) for v in row))
    return "\n".join(lines) + "\n"


def flatten_for_csv(report: dict, prefix: str = "") -> dict:
    """Flatten nested dicts/lists into dotted scalar columns."""
    flat: dict[str, object] = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_for_csv(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            for idx, item in enumerate(value):
                if isinstance(item, dict):
                    flat.update(flatten_for_csv(item, prefix=f"{name}.{idx}."))
                else:
                    flat[f"{name}.{idx}"] = item
        else:
            flat[name] = value
    return flat
