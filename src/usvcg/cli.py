"""Command-line driver.

Commands::

    usvcg solve INSTANCE (--mean | --agent-index I | --type W1,..,WM,WMONEY)
    usvcg elicit INSTANCE [--ballots PATH] [--answers PATH] [--questions PATH]
    usvcg mechanism INSTANCE [--bias PATH | --non-positive | --hetero] ...
                    [--gamma G] [--rebate R] [--mu MU]
    usvcg fuzz INSTANCE --trials N [--seed S] [--coalition K] [--csv PATH]
    usvcg converge SIGMA --n-list 10,100,1000 [--seed S] [--non-positive]
    usvcg check INSTANCE RESULT

Results are JSON documents (stdout, or --out PATH), written compactly on
one line through the C encoder (``files.to_json``); every float is its
``repr``, so a document parses back to the run's bits.  Exit codes: 0 ok,
2 schema/input error, 3 solver or mechanism error, 4 follow-up questions
pending (the questions are emitted as a request document), 5 a verified
property failed.  Every command with randomness takes --seed and is
deterministic given its inputs.  No command takes a numerical setting of
the solver: tolerances, tax-sample growth, uniqueness margin and the
non-positive scheme's finite-difference step are fixed by the library.

Ballots are parsed and inverted as arrays (``files.parse_ballots``,
``elicitation.invert_ballots``), each row checked as one ballot is and the
first failing row named.  ``mechanism`` and ``check`` share one
computation (``_mechanism_pass``): one run of the variant, its realised
utilities, and the accounting identity's residuals from the run's own
pivot solves, every valuation at the decision read from its levels
evaluated once (``model._levels``).  ``mechanism`` writes it.  ``check``
first compares the document's types with the instance's profile
(``_profile_mismatch``: the instance's types, or the ratios its ballots
determine, follow-up goods left free), then runs the computation again and
compares the stored decision, schedules, realised utilities and residuals
with the fresh ones, bounding both the stored and the fresh residuals; a
mismatch names the first agent that differs where it can.  ``python -m
usvcg`` runs the same commands.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import experiments, files, mechanism
from .curves import validate_assumptions
from .elicitation import answer_followups, complete_types, invert_ballots
from .errors import SchemaError, UsvcgError
from .mechanism import (
    NonPositiveConfig,
    Outcome,
    run_bus_vcg,
    run_us_vcg,
    run_us_vcg_hetero,
)
from .model import AgentType, mean_type, valuation
from .solver import optimize

__all__ = ["main"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ENGINE = 3
EXIT_PENDING = 4
EXIT_FAILED = 5

_DEFAULT_MU = 2.0  # money-weight band behind the default non-positive gamma
_TOL = 1e-6  # check's relative tolerance on a re-derived value


def _emit(doc: dict, out_path: str | None) -> None:
    if out_path:
        files.write_json(out_path, doc)
        print(f"wrote {out_path}")
    else:
        print(files.to_json(doc))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_type_flag(text: str, m: int) -> AgentType:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != m + 1:
        raise SchemaError(
            f"--type needs {m} allocation weights plus a money weight, got {len(parts)} values"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"--type: {exc}") from exc
    return AgentType(tuple(values[:-1]), values[-1])


def _profile_from_inputs(instance, ballots, answers_path: str | None):
    """Profile from explicit types, or by inverting ballots (the answers
    file feeds any follow-ups).  Returns (profile, pending-questions or None)."""
    if instance.types is not None:
        return instance.types, None
    if ballots is None:
        raise SchemaError("a profile is required: give types or ballots")
    answers = {}
    if answers_path:
        answers = files.parse_answers(files.load_json(answers_path), where=answers_path)
    for (agent, good), tau in answers.items():
        if not (0 <= agent < instance.n and 0 <= good < instance.m and tau >= 0.0):
            raise SchemaError(
                f"{answers_path}: the answer of agent {agent} for good {good} (tau {tau:g}) "
                f"needs 0 <= agent < {instance.n}, 0 <= good < {instance.m} and tau >= 0"
            )
    ratios, followups = invert_ballots(ballots, instance)
    questions = [
        {
            "agent": i,
            "good": fu.good_index,
            "probe_spend": fu.probe_spend,
            "question": (
                f"Largest tax increase you would accept to fund a "
                f"spending of {fu.probe_spend:.6g} on good {fu.good_index}?"
            ),
        }
        for i, fu in answer_followups(ballots, instance, ratios, followups, answers)
    ]
    if questions:
        return None, {"pending_followups": questions}
    return complete_types(ratios), None


# =============================================================================
# Commands
# =============================================================================


def cmd_solve(args) -> int:
    instance, _ = files.load_instance(args.instance)
    if args.type:
        agent = _parse_type_flag(args.type, instance.m)
    elif args.agent_index is not None:
        if instance.types is None:
            raise SchemaError("--agent-index needs types in the instance file")
        if not 0 <= args.agent_index < len(instance.types):
            raise SchemaError(f"--agent-index must lie in 0..{len(instance.types) - 1}")
        agent = instance.types[args.agent_index]
    else:
        if instance.types is None:
            raise SchemaError("--mean needs types in the instance file")
        agent = mean_type(instance.types)
    decision = optimize(agent, instance)
    doc = {
        "command": "solve",
        "agent": files.type_to_dict(agent),
        "decision": files.decision_to_dict(decision),
        "valuation": valuation(agent, decision, instance),
        "validation": validate_assumptions(instance).as_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_elicit(args) -> int:
    instance, inline_ballots = files.load_instance(args.instance)
    ballots = inline_ballots
    if args.ballots:
        ballots = files.parse_ballots(files.load_json(args.ballots), instance.m, where=args.ballots)
    if ballots is None:
        raise SchemaError("no ballots: put them in the instance file or pass --ballots")
    profile, questions = _profile_from_inputs(instance, ballots, args.answers)
    if questions is not None:
        _emit(questions, args.questions or args.out)
        return EXIT_PENDING
    _emit({"command": "elicit", "types": [files.type_to_dict(t) for t in profile]}, args.out)
    return EXIT_OK


def _mechanism_pass(
    instance, profile, bias=None, hetero: bool = False, npc: NonPositiveConfig | None = None
) -> tuple[Outcome, list[float], list[float] | None]:
    """Run one mechanism variant (at most one of ``bias``, ``hetero`` and
    ``npc`` set): its outcome, the realised utilities and the accounting
    identity's residuals from the run's own pivot solves (None for the
    non-positive variant, which has no closed identity)."""
    with mechanism._keeping_optima() as kept:
        if bias is not None:
            run_bus_vcg(profile, bias, instance)
        elif hetero:
            run_us_vcg_hetero(profile, instance)
        elif npc is not None:
            mechanism.non_positive_payments(profile, instance, npc)
        else:
            run_us_vcg(profile, instance)
    ((variant, optima, outcome, levels),) = kept
    utilities = mechanism._realized(variant, outcome, levels)
    if npc is not None:
        return outcome, utilities, None
    return outcome, utilities, mechanism._residuals(variant, optima, outcome, utilities, levels)


def cmd_mechanism(args) -> int:
    instance, ballots = files.load_instance(args.instance)
    profile, questions = _profile_from_inputs(instance, ballots, args.answers)
    if questions is not None:
        _emit(questions, args.out)
        return EXIT_PENDING
    if sum(bool(x) for x in (args.bias, args.non_positive, args.hetero)) > 1:
        raise SchemaError("--bias, --non-positive and --hetero are mutually exclusive")
    npc = None
    if args.non_positive:
        gamma = NonPositiveConfig.for_band(args.mu).gamma if args.gamma is None else args.gamma
        npc = NonPositiveConfig(gamma=gamma, r=args.rebate)
    bias = files.load_bias(args.bias) if args.bias else None
    outcome, utilities, residuals = _mechanism_pass(instance, profile, bias, args.hetero, npc)
    doc = {
        "command": "mechanism",
        "variant": {
            "bias": None if bias is None else files.bias_to_dict(bias),
            "non_positive": False if npc is None else {"gamma": npc.gamma, "r": npc.r},
            "hetero": args.hetero,
        },
        **files.outcome_to_dict(outcome),
        "realized_utilities": utilities,
        "identity_residuals": residuals,
        "types": [files.type_to_dict(t) for t in profile],
        "validation": validate_assumptions(instance).as_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.trials < 0:
        raise SchemaError(f"--trials must be >= 0, got {args.trials}")
    if not 1.0 <= args.mu < math.inf:
        raise SchemaError(f"--mu must satisfy 1 <= mu < inf, got {args.mu}")
    if args.seed < 0:
        raise SchemaError(f"--seed must be >= 0, got {args.seed}")
    instance, _ = files.load_instance(args.instance)
    if args.coalition is not None:
        if not 0 < args.coalition < instance.n:
            raise SchemaError(f"--coalition must lie in 1..{instance.n - 1}, got {args.coalition}")
        report = experiments.coalition_probe(
            instance,
            args.coalition,
            args.trials,
            args.seed,
            mu=args.mu,
            misreport_space=args.misreport_space,
        )
        if args.csv:
            _write_csv(
                args.csv,
                ["trial", "manipulations", "unstable"],
                report.per_trial,
            )
    else:
        report = experiments.sdsic_fuzz(
            instance, args.trials, args.seed, mu=args.mu, misreport_space=args.misreport_space
        )
        if args.csv:
            _write_csv(
                args.csv, ["trial", "gain"], list(enumerate(report.gains))
            )
    doc = report.as_dict()
    if args.trials == 0:
        doc["warning"] = "zero trials requested; the pass is vacuous"
    elif report.diverged == args.trials:
        doc["warning"] = "every trial diverged; the pass is vacuous"
    elif args.coalition is None and all(map(math.isnan, report.gains)):
        doc["warning"] = "no trial measured a gain; the pass is vacuous"
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_converge(args) -> int:
    if args.seed < 0:
        raise SchemaError(f"--seed must be >= 0, got {args.seed}")
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError as exc:
        raise SchemaError(f"--n-list: {exc}") from exc
    low = 2 if args.non_positive else 1  # the non-positive scheme needs two agents
    if not n_list or n_list[0] < low or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SchemaError(f"--n-list needs strictly increasing sizes >= {low}, got {args.n_list!r}")
    sigma, template = files.load_sigma(args.sigma, mu_default=args.mu)
    rule = "non_positive" if args.non_positive else "sensitive"
    table = experiments.convergence_study(
        sigma, template, n_list, args.seed, payment_rule=rule
    )
    if args.csv:
        _write_csv(
            args.csv,
            ["n", "max_abs_payment", "n_times_max", "sum_abs_payments", "max_signed_payment"],
            [
                (r.n, r.max_abs_payment, r.n_times_max, r.sum_abs_payments, r.max_signed_payment)
                for r in table.rows
            ],
        )
    _emit(table.as_dict(), args.out)
    return EXIT_OK if table.passed else EXIT_FAILED


def _close(a, b):
    """a and b agree within ``_TOL`` relative, or absolute below 1 (floats
    or arrays, entry by entry)."""
    return abs(a - b) <= _TOL * np.maximum(1.0, np.maximum(abs(a), abs(b)))


def _profile_mismatch(instance, ballots, profile) -> str | None:
    """Why a result document's ``profile`` is not the instance's, naming the
    first agent that differs, or None.  A types instance must match every
    weight within ``_close``.  A ballot instance must have each type
    reproduce every ratio w_j / w_money its ballot determines
    (``invert_ballots``) within ``_close``; goods left to a follow-up are
    free, since ``check`` takes no answers.  An instance with neither has
    nothing to compare."""
    agents = instance.types if instance.types is not None else ballots
    if agents is None:
        return None
    if len(profile) != len(agents):
        return f"the result has {len(profile)} types, the instance {len(agents)} agents"
    for i, agent in enumerate(profile):
        if agent.m != instance.m:
            return f"agent {i} has {agent.m} allocation weights, the instance {instance.m} goods"
    stored = np.array([(*t.alloc_weights, t.money_weight) for t in profile])
    if instance.types is not None:
        fresh = np.array([(*t.alloc_weights, t.money_weight) for t in instance.types])
        what = "the instance's"
    else:
        stored = stored[:, :-1] / stored[:, -1:]
        ratios, _ = invert_ballots(ballots, instance)
        fresh = np.where(np.isnan(ratios), stored, ratios)
        what = "the ratios w_j / w_money of the instance's ballot"
    differs = ~_close(stored, fresh).all(axis=1)
    return f"agent {differs.argmax()}'s type differs from {what}" if differs.any() else None


def cmd_check(args) -> int:
    instance, ballots = files.load_instance(args.instance)
    result = files.load_json(args.result)
    command = result.get("command")

    def near(a, b):
        return abs(a - b) <= _TOL

    def tiny(a, b):
        return np.maximum(abs(a), abs(b)) <= 1e-8

    def same(stored, fresh, match) -> bool:
        stored, fresh = np.asarray(stored, dtype=float), np.asarray(fresh, dtype=float)
        return stored.shape == fresh.shape and bool(match(stored, fresh).all())

    if command == "solve":
        agent = files.type_from_dict(result.get("agent"), "result agent")
        stored = files.decision_from_dict(result.get("decision"), "result decision")
        fresh = optimize(agent, instance)
        ok = _close(stored.tax, fresh.tax) and same(stored.allocation, fresh.allocation, near)
        stored_value = files._number(result, "valuation", "result")
        ok = ok and _close(stored_value, valuation(agent, fresh, instance))
    elif command == "mechanism":
        rows = result.get("types")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("result document carries no list of types to re-verify against")
        profile = tuple(files.type_from_dict(t, f"result types[{i}]") for i, t in enumerate(rows))
        variant = result.get("variant", {})
        if not isinstance(variant, dict):
            raise SchemaError(f"result field 'variant' must be a JSON object, got {variant!r}")
        np_doc, hetero = variant.get("non_positive", False), variant.get("hetero", False)
        if not isinstance(np_doc, (bool, dict)) or not isinstance(hetero, bool):
            raise SchemaError("result variant: non_positive is a flag or object, hetero a flag")
        bias_doc = variant.get("bias")
        if sum(bool(x) for x in (bias_doc, np_doc, hetero)) > 1:
            raise SchemaError("result variant names more than one of bias, non_positive and hetero")
        npc = None
        if np_doc:
            spec = np_doc if isinstance(np_doc, dict) else {}
            where, default = "result variant non_positive", NonPositiveConfig.for_band(_DEFAULT_MU)
            npc = NonPositiveConfig(
                gamma=files._number(spec, "gamma", where) if "gamma" in spec else default.gamma,
                r=files._number(spec, "r", where) if "r" in spec else 0.0,
            )
        bias = files.parse_bias(bias_doc, "result variant bias") if bias_doc else None
        stored = files.outcome_from_dict(result, "result")
        stored_utilities = files.number_list(result, "realized_utilities", "result", nullable=True)
        residuals = files.number_list(result, "identity_residuals", "result", nullable=True)
        mismatch = _profile_mismatch(instance, ballots, profile)
        if mismatch is not None:
            print(f"check: MISMATCH: {mismatch}", file=sys.stderr)
            return EXIT_FAILED
        fresh, utilities, audit = _mechanism_pass(instance, profile, bias, hetero, npc)
        ok = _close(stored.decision.tax, fresh.decision.tax)
        ok = ok and same(stored.decision.allocation, fresh.decision.allocation, near)
        ok = ok and same(stored.raw_vcg, fresh.raw_vcg, _close)
        ok = ok and same(stored.payments, fresh.payments, _close)
        ok = ok and _close(stored.welfare, fresh.welfare)
        ok = ok and same(stored_utilities or (), utilities, _close)
        ok = ok and (residuals is None if audit is None else same(residuals or (), audit, tiny))
    else:
        raise SchemaError(f"cannot re-verify result documents of command {command!r}")

    if ok:
        print("check: OK")
        return EXIT_OK
    print("check: MISMATCH", file=sys.stderr)
    return EXIT_FAILED


# =============================================================================
# Parser
# =============================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvcg",
        description="Utility-sensitive VCG engine for tax-involved participatory budgeting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimal budget decision for one type")
    p.add_argument("instance")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mean", action="store_true", help="solve for the mean of the instance types")
    g.add_argument("--agent-index", type=int, default=None)
    g.add_argument("--type", default=None, help="explicit type: W1,..,WM,WMONEY")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("elicit", help="recover types from preferred-budget ballots")
    p.add_argument("instance")
    p.add_argument("--ballots", default=None, help="JSON with a ballots list")
    p.add_argument("--answers", default=None, help="JSON with follow-up answers")
    p.add_argument("--questions", default=None, help="where to write pending questions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("mechanism", help="run the mechanism and assign payments")
    p.add_argument("instance")
    p.add_argument("--bias", default=None, help="bias spec JSON path")
    p.add_argument(
        "--non-positive", action="store_true", help="Jacobian-bound rebate off the payments (per-capita)"
    )
    p.add_argument("--hetero", action="store_true")
    p.add_argument("--answers", default=None, help="follow-up answers when eliciting from ballots")
    p.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="type-spread bound for --non-positive; it must cover every type's distance to the others' mean",
    )
    p.add_argument("--rebate", type=float, default=0.0, help="extra rebate constant r")
    p.add_argument("--mu", type=float, default=_DEFAULT_MU, help="money-weight band for the default gamma")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mechanism)

    p = sub.add_parser("fuzz", help="misreport / coalition fuzzing")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--coalition", type=int, default=None, help="coalition size (omit for unilateral)")
    p.add_argument("--mu", type=float, default=4.0, help="money-weight band of sampled profiles")
    p.add_argument(
        "--misreport-space",
        choices=("full", "allocation"),
        default="full",
        dest="misreport_space",
    )
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("converge", help="payment-vanishing study over growing populations")
    p.add_argument("sigma", help="triplet JSON (or per-capita instance with types)")
    p.add_argument("--n-list", required=True, dest="n_list")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--non-positive", action="store_true", dest="non_positive")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="re-verify a result document against its instance")
    p.add_argument("instance")
    p.add_argument("result")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except UsvcgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
