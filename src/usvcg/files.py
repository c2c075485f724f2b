"""JSON file formats: instances, ballots, bias specs, triplets, results.

One JSON document describes one budgeting instance::

    {
      "m": 2, "n": 3,
      "external_budget": 0.0,
      "currency_unit": "currency/agent",            # informational
      "semantics": "nominal" | "per_capita",        # mandatory
      "mrs_convention": "n_scaled" | "n_free",      # mandatory
      "gain_curves": [{"kind": "log", "scale": 10.0},
                      {"kind": "power", "scale": 1.0, "exponent": 0.5},
                      {"kind": "log1p", "scale": 2.0}],
      "money_curve": {"kind": "power", "q": 0.5}
                   | {"kind": "kt", "q": 0.88, "r": 0.88, "loss_weight": 2.25},
      "tax_weights": [1.0, 1.0, 1.0],               # optional, sums to n
      "types":   [{"alloc_weights": [0.7, 0.3], "money_weight": 0.8}, ...],
      "ballots": [{"allocation": [0.7, 0.3], "tax": 69.4}, ...]
    }

``types`` and ``ballots`` are both optional but mutually exclusive.  All
loaders raise SchemaError with a pointed message on malformed input; a
field of numbers takes JSON numbers only (no bools, strings or nulls), and
a ballot's ``allocation`` exactly m of them.  Ballots load as one
``elicitation.Ballots`` (an (n, m) array of allocations and a column of
taxes), not one object per row.  Documents are written compactly through
the C encoder (``to_json``), floats as their ``repr``, so every value
keeps its bits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .curves import GainCurve, MoneyCurve
from .elicitation import Ballots
from .errors import SchemaError, UsvcgError
from .mechanism import Outcome
from .model import AgentType, BudgetDecision, BudgetInstance, CharacteristicTriplet
from .solver import (
    BiasSpec,
    ConstantTarget,
    EquitableTarget,
    TableTarget,
    TaxPreference,
)

__all__ = [
    "load_instance",
    "parse_instance",
    "instance_to_dict",
    "parse_ballots",
    "parse_bias",
    "load_bias",
    "bias_to_dict",
    "parse_sigma",
    "load_sigma",
    "parse_answers",
    "decision_to_dict",
    "decision_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "type_to_dict",
    "load_json",
    "to_json",
    "write_json",
]

_PLAIN_NUMBERS = frozenset((int, float))


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return doc


def to_json(doc: dict) -> str:
    """``doc`` as compact JSON text, through the C encoder: no indentation
    and no spaces after separators, every float written as its ``repr``,
    so it parses back to the same bits."""
    return json.dumps(doc, separators=(",", ":"))


def write_json(path, doc: dict) -> None:
    Path(path).write_text(to_json(doc) + "\n", encoding="utf-8")


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {doc!r}")
    if key not in doc:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return doc[key]


def _number(doc: dict, key: str, where: str) -> float:
    v = _require(doc, key, where)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise SchemaError(f"{where}: field {key!r} must be a finite number, got {v!r}")
    return float(v)


def _is_number(v) -> bool:
    """A JSON number: an int or a float, not a bool (nor a string)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(values) -> bool:
    """``values`` is a list of JSON numbers (``_is_number``); plain ints and
    floats are told apart by their types alone."""
    return isinstance(values, list) and (
        _PLAIN_NUMBERS.issuperset(map(type, values)) or all(map(_is_number, values))
    )


def number_list(doc: dict, key: str, where: str, nullable: bool = False) -> tuple | None:
    """``doc[key]`` as a tuple of floats; it must be a list of numbers, or,
    when ``nullable``, null or absent (None)."""
    values = doc.get(key) if nullable else _require(doc, key, where)
    if nullable and values is None:
        return None
    if not _numbers(values):
        kind = "a list of numbers or null" if nullable else "a list of numbers"
        raise SchemaError(f"{where}: field {key!r} must be {kind}, got {values!r}")
    return tuple(map(float, values))


# =============================================================================
# Curves
# =============================================================================


def gain_curve_from_dict(doc: dict, where: str = "gain curve") -> GainCurve:
    kind = _require(doc, "kind", where)
    try:
        if kind == "log":
            return GainCurve.log(_number(doc, "scale", where))
        if kind == "power":
            return GainCurve.power(_number(doc, "scale", where), _number(doc, "exponent", where))
        if kind == "log1p":
            return GainCurve.log1p(_number(doc, "scale", where))
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: unknown kind {kind!r}")


def gain_curve_to_dict(curve: GainCurve) -> dict:
    doc = {"kind": curve.kind, "scale": curve.scale}
    if curve.exponent is not None:
        doc["exponent"] = curve.exponent
    return doc


def money_curve_from_dict(doc: dict, where: str = "money curve") -> MoneyCurve:
    kind = _require(doc, "kind", where)
    try:
        if kind == "power":
            return MoneyCurve.power(_number(doc, "q", where))
        if kind == "kt":
            return MoneyCurve.kahneman_tversky(
                _number(doc, "q", where),
                _number(doc, "r", where),
                _number(doc, "loss_weight", where),
            )
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: unknown kind {kind!r}")


def money_curve_to_dict(curve: MoneyCurve) -> dict:
    doc = {"kind": curve.kind, "q": curve.q}
    if curve.kind == "kt":
        doc["r"] = curve.r
        doc["loss_weight"] = curve.loss_weight
    return doc


# =============================================================================
# Types, decisions, instances
# =============================================================================


def type_from_dict(doc: dict, where: str = "type") -> AgentType:
    weights = number_list(doc, "alloc_weights", where)
    try:
        return AgentType(weights, _number(doc, "money_weight", where))
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def type_to_dict(agent: AgentType) -> dict:
    return {"alloc_weights": list(agent.alloc_weights), "money_weight": agent.money_weight}


def decision_from_dict(doc: dict, where: str = "decision") -> BudgetDecision:
    alloc = _require(doc, "allocation", where)
    if not isinstance(alloc, list):
        raise SchemaError(f"{where}: allocation must be a list")
    try:
        return BudgetDecision(tuple(float(x) for x in alloc), _number(doc, "tax", where))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def decision_to_dict(decision: BudgetDecision) -> dict:
    return {"allocation": list(decision.allocation), "tax": decision.tax}


def parse_instance(doc: dict, where: str = "instance") -> tuple[BudgetInstance, Ballots | None]:
    m = int(_number(doc, "m", where))
    n = int(_number(doc, "n", where))
    semantics = _require(doc, "semantics", where)
    convention = _require(doc, "mrs_convention", where)
    curves_doc = _require(doc, "gain_curves", where)
    if not isinstance(curves_doc, list) or len(curves_doc) != m:
        raise SchemaError(f"{where}: gain_curves must be a list of {m} descriptors")
    gain_curves = tuple(
        gain_curve_from_dict(c, f"{where}: gain_curves[{j}]") for j, c in enumerate(curves_doc)
    )
    money = money_curve_from_dict(_require(doc, "money_curve", where), f"{where}: money_curve")

    if "types" in doc and "ballots" in doc:
        raise SchemaError(f"{where}: give either types or ballots, not both")
    types = None
    if "types" in doc:
        if not isinstance(doc["types"], list):
            raise SchemaError(f"{where}: types must be a list")
        types = tuple(
            type_from_dict(t, f"{where}: types[{i}]") for i, t in enumerate(doc["types"])
        )
    ballots = parse_ballots(doc, m, where) if "ballots" in doc else None
    tax_weights = number_list(doc, "tax_weights", where) if "tax_weights" in doc else None

    try:
        instance = BudgetInstance(
            m=m,
            n=n,
            external_budget=_number(doc, "external_budget", where),
            gain_curves=gain_curves,
            money_curve=money,
            semantics=semantics,
            mrs_convention=convention,
            tax_weights=tax_weights,
            types=types,
        )
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    return instance, ballots


def load_instance(path) -> tuple[BudgetInstance, Ballots | None]:
    return parse_instance(load_json(path), where=str(path))


def instance_to_dict(instance: BudgetInstance, ballots=None) -> dict:
    doc = {
        "m": instance.m,
        "n": instance.n,
        "external_budget": instance.external_budget,
        "semantics": instance.semantics,
        "mrs_convention": instance.mrs_convention,
        "gain_curves": [gain_curve_to_dict(c) for c in instance.gain_curves],
        "money_curve": money_curve_to_dict(instance.money_curve),
    }
    if not instance.homogeneous_tax:
        doc["tax_weights"] = list(instance.tax_weights)
    if instance.types is not None:
        doc["types"] = [type_to_dict(t) for t in instance.types]
    if ballots is not None:
        doc["ballots"] = [decision_to_dict(b.decision) for b in ballots]
    return doc


# =============================================================================
# Bias specs
# =============================================================================


def parse_bias(doc: dict, where: str = "bias") -> BiasSpec:
    lam = _number(doc, "lambda", where)
    target_doc = _require(doc, "target", where)
    kind = _require(target_doc, "kind", f"{where}: target")
    try:
        if kind == "constant":
            target = ConstantTarget(number_list(target_doc, "allocation", where))
        elif kind == "equitable":
            target = EquitableTarget()
        elif kind == "table":
            rows = _require(target_doc, "allocations", where)
            if not isinstance(rows, list):
                raise SchemaError(f"{where}: field 'allocations' must be a list, got {rows!r}")
            by_index = dict(enumerate(rows))
            target = TableTarget(
                number_list(target_doc, "taxes", where),
                tuple(number_list(by_index, k, f"{where}: allocations") for k in by_index),
            )
        else:
            raise SchemaError(f"{where}: unknown target kind {kind!r}")
        psi = TaxPreference.none()
        if "psi" in doc:
            psi_doc = doc["psi"]
            psi_kind = _require(psi_doc, "kind", f"{where}: psi")
            if psi_kind == "none":
                psi = TaxPreference.none()
            elif psi_kind == "exp_decay":
                psi = TaxPreference.exp_decay(
                    _number(psi_doc, "amplitude", f"{where}: psi"),
                    _number(psi_doc, "decay_scale", f"{where}: psi"),
                )
            else:
                raise SchemaError(f"{where}: unknown psi kind {psi_kind!r}")
        return BiasSpec(lam=lam, target=target, psi=psi)
    except UsvcgError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"{where}: {exc}") from exc


def load_bias(path) -> BiasSpec:
    return parse_bias(load_json(path), where=str(path))


def bias_to_dict(bias: BiasSpec) -> dict:
    if isinstance(bias.target, ConstantTarget):
        target = {"kind": "constant", "allocation": list(bias.target.allocation)}
    elif isinstance(bias.target, EquitableTarget):
        target = {"kind": "equitable"}
    else:
        target = {
            "kind": "table",
            "taxes": list(bias.target.taxes),
            "allocations": [list(row) for row in bias.target.allocations],
        }
    doc = {"lambda": bias.lam, "target": target}
    if bias.psi.kind != "none":
        doc["psi"] = {
            "kind": bias.psi.kind,
            "amplitude": bias.psi.amplitude,
            "decay_scale": bias.psi.decay_scale,
        }
    return doc


# =============================================================================
# Characteristic triplets
# =============================================================================


def parse_sigma(doc: dict, mu_default: float = 2.0, where: str = "sigma") -> tuple[CharacteristicTriplet, BudgetInstance]:
    """A triplet document carries b0/mu/mean_type plus the curve catalog; an
    instance document works too (mean of its types, b0 from its budget)."""
    if "mean_type" in doc:
        mean = type_from_dict(_require(doc, "mean_type", where), f"{where}: mean_type")
        b0 = _number(doc, "b0", where)
        mu = _number(doc, "mu", where) if "mu" in doc else mu_default
        curves_doc = _require(doc, "gain_curves", where)
        gain_curves = tuple(
            gain_curve_from_dict(c, f"{where}: gain_curves[{j}]")
            for j, c in enumerate(curves_doc)
        )
        money = money_curve_from_dict(_require(doc, "money_curve", where), f"{where}: money_curve")
        convention = doc.get("mrs_convention", "n_free")
        try:
            sigma = CharacteristicTriplet(b0=b0, mu=mu, mean_type=mean)
            template = BudgetInstance(
                m=mean.m,
                n=2,
                external_budget=2 * b0,
                gain_curves=gain_curves,
                money_curve=money,
                semantics="per_capita",
                mrs_convention=convention,
            )
        except UsvcgError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        return sigma, template

    instance, _ = parse_instance(doc, where)
    if instance.types is None:
        raise SchemaError(f"{where}: instance document needs types to derive a triplet")
    from .model import mean_type as _mean

    mean = _mean(instance.types)
    mu = doc.get("mu", mu_default)
    try:
        sigma = CharacteristicTriplet(
            b0=instance.external_budget / instance.n, mu=float(mu), mean_type=mean
        )
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    return sigma, instance


def load_sigma(path, mu_default: float = 2.0) -> tuple[CharacteristicTriplet, BudgetInstance]:
    return parse_sigma(load_json(path), mu_default, where=str(path))


# =============================================================================
# Answers and outcomes
# =============================================================================


def parse_ballots(doc: dict, m: int, where: str = "ballots") -> Ballots:
    """``doc["ballots"]`` as ``Ballots``: each row a JSON object whose
    ``allocation`` is a list of m JSON numbers and whose ``tax`` is a finite
    number, snapped onto the simplex by ``Ballots.from_raw``.  The first row
    that breaks a rule raises SchemaError naming it."""
    rows = _require(doc, "ballots", where)
    if not isinstance(rows, list):
        raise SchemaError(f"{where}: ballots must be a list")

    def malformed(i: int, allocation) -> SchemaError:
        return SchemaError(
            f"{where}: ballots[{i}]: field 'allocation' must be a list of {m} numbers, got {allocation!r}"
        )

    allocations, taxes = [], []
    for i, row in enumerate(rows):
        allocation = _require(row, "allocation", f"{where}: ballots[{i}]")
        if not (isinstance(allocation, list) and len(allocation) == m):
            raise malformed(i, allocation)
        allocations.append(allocation)
        taxes.append(_number(row, "tax", f"{where}: ballots[{i}]"))
    # one pass over the entries' types; the exact rule only if one is not a plain number
    if not _PLAIN_NUMBERS.issuperset(type(x) for allocation in allocations for x in allocation):
        for i, allocation in enumerate(allocations):
            if not _numbers(allocation):
                raise malformed(i, allocation)
    try:
        return Ballots.from_raw(np.array(allocations, dtype=float).reshape(len(rows), m), taxes)
    except UsvcgError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_answers(doc: dict, where: str = "answers") -> dict[tuple[int, int], float]:
    rows = _require(doc, "answers", where)
    if not isinstance(rows, list):
        raise SchemaError(f"{where}: answers must be a list")
    out: dict[tuple[int, int], float] = {}
    for i, row in enumerate(rows):
        agent = int(_number(row, "agent", f"{where}: answers[{i}]"))
        good = int(_number(row, "good", f"{where}: answers[{i}]"))
        out[(agent, good)] = _number(row, "tau", f"{where}: answers[{i}]")
    return out


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "decision": decision_to_dict(outcome.decision),
        "raw_vcg": list(outcome.raw_vcg),
        "payments": list(outcome.payments),
        "welfare": outcome.welfare,
    }


def outcome_from_dict(doc: dict, where: str = "outcome") -> Outcome:
    return Outcome(
        decision=decision_from_dict(_require(doc, "decision", where), f"{where}: decision"),
        raw_vcg=number_list(doc, "raw_vcg", where),
        payments=number_list(doc, "payments", where),
        welfare=_number(doc, "welfare", where),
    )
