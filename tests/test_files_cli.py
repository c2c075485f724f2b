"""File formats and the command-line driver (exit codes, determinism)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import usvcg
from conftest import (
    BOUNDARY_CATALOGS,
    RUNNING_PROFILE,
    diverging_lies,
    make_boundary_instance,
    make_running_instance,
    make_water_fill_kt_instance,
    random_profile,
    variants_catalog,
)
from usvcg import (
    BudgetInstance,
    GainCurve,
    MoneyCurve,
    NonPositiveConfig,
    SchemaError,
    coalition_probe,
    files,
    non_positive_payments,
    run_us_vcg,
    solver,
)
from usvcg.cli import main
from usvcg.mechanism import identity_residuals, realized_utility
from usvcg.solver import BiasSpec, ConstantTarget, EquitableTarget, TaxPreference

RUNNING = "fixtures/running_example.json"
BALLOTS = "fixtures/running_example_ballots.json"


# =============================================================================
# Formats
# =============================================================================


def test_instance_roundtrip():
    inst = make_running_instance()
    doc = files.instance_to_dict(inst)
    back, ballots = files.parse_instance(doc)
    assert ballots is None
    assert back == inst


def test_fixture_loads():
    inst, ballots = files.load_instance(RUNNING)
    assert inst.m == 2 and inst.n == 3
    assert inst.types == RUNNING_PROFILE
    assert ballots is None
    inst2, ballots2 = files.load_instance(BALLOTS)
    assert inst2.types is None
    assert len(ballots2) == 3
    assert ballots2[0].decision.tax == 69.4


def test_schema_errors():
    good = files.instance_to_dict(make_running_instance())
    for key in ("m", "n", "semantics", "mrs_convention", "gain_curves", "money_curve"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(SchemaError):
            files.parse_instance(broken)
    with pytest.raises(SchemaError):
        files.parse_instance({**good, "ballots": [{"allocation": [0.5, 0.5], "tax": 1.0}]})
    with pytest.raises(SchemaError):
        files.parse_instance({**good, "gain_curves": [{"kind": "cubic", "scale": 1.0}]})
    with pytest.raises(SchemaError):
        files.parse_instance({**good, "money_curve": {"kind": "power", "q": 2.0}})


def test_bias_roundtrip():
    for bias in (
        BiasSpec(lam=1.5, target=ConstantTarget((0.3, 0.7))),
        BiasSpec(lam=0.5, target=EquitableTarget(), psi=TaxPreference.exp_decay(2.0, 50.0)),
    ):
        doc = files.bias_to_dict(bias)
        assert files.parse_bias(doc) == bias


def test_sigma_from_triplet_and_from_instance():
    doc = {
        "b0": 1.5,
        "mu": 2.0,
        "mean_type": {"alloc_weights": [0.4, 0.6], "money_weight": 1.0},
        "gain_curves": [{"kind": "log", "scale": 10.0}, {"kind": "log", "scale": 10.0}],
        "money_curve": {"kind": "power", "q": 0.5},
    }
    sigma, template = files.parse_sigma(doc)
    assert sigma.b0 == 1.5 and sigma.mu == 2.0
    assert template.semantics == "per_capita"

    inst_doc = files.instance_to_dict(make_running_instance(semantics="per_capita"))
    sigma2, template2 = files.parse_sigma(inst_doc, mu_default=3.0)
    assert sigma2.mu == 3.0
    assert sigma2.mean_type.alloc_weights == pytest.approx((0.4, 0.6))


def test_answers_parsing():
    doc = {"answers": [{"agent": 0, "good": 1, "tau": 2.5}]}
    assert files.parse_answers(doc) == {(0, 1): 2.5}
    with pytest.raises(SchemaError):
        files.parse_answers({"answers": [{"agent": 0}]})


# =============================================================================
# CLI flows
# =============================================================================


def test_cli_solve_mean(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert main(["solve", RUNNING, "--mean", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["decision"]["tax"] == pytest.approx(374.61, abs=0.05)
    assert doc["validation"]["passed"] is True


def test_cli_solve_explicit_type(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", RUNNING, "--type", "0.4,0.6,1.03", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["decision"]["tax"] == pytest.approx(377.0, abs=1.0)


def test_cli_elicit_recovers_types(tmp_path):
    out = tmp_path / "types.json"
    assert main(["elicit", BALLOTS, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    recovered = doc["types"]
    for rec, truth in zip(recovered, RUNNING_PROFILE):
        assert np.allclose(rec["alloc_weights"], truth.alloc_weights, atol=1e-2)
        assert rec["money_weight"] == pytest.approx(truth.money_weight, abs=1e-2)


def test_cli_elicit_followup_flow(tmp_path):
    inst_doc = {
        "m": 2,
        "n": 2,
        "external_budget": 0.0,
        "semantics": "nominal",
        "mrs_convention": "n_scaled",
        "gain_curves": [{"kind": "log", "scale": 10.0}, {"kind": "log1p", "scale": 0.4}],
        "money_curve": {"kind": "power", "q": 0.5},
        "ballots": [
            {"allocation": [1.0, 0.0], "tax": 396.0},
            {"allocation": [0.9, 0.1], "tax": 300.0},
        ],
    }
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst_doc))
    questions = tmp_path / "q.json"
    out = tmp_path / "types.json"

    rc = main(["elicit", str(inst_path), "--questions", str(questions), "--out", str(out)])
    assert rc == 4
    qdoc = json.loads(questions.read_text())
    assert [q["agent"] for q in qdoc["pending_followups"]] == [0]
    assert qdoc["pending_followups"][0]["good"] == 1

    answers = tmp_path / "a.json"
    answers.write_text(json.dumps({"answers": [{"agent": 0, "good": 1, "tau": 1.25}]}))
    rc = main(["elicit", str(inst_path), "--answers", str(answers), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["types"]) == 2


def test_cli_mechanism_and_check(tmp_path):
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert max(abs(r) for r in doc["identity_residuals"]) <= 1e-8
    assert len(doc["payments"]) == 3
    assert main(["check", RUNNING, str(out)]) == 0

    # tampering must be caught
    doc["payments"][0] += 0.5
    out.write_text(json.dumps(doc))
    assert main(["check", RUNNING, str(out)]) == 5


@pytest.mark.parametrize("to_file", [True, False])
def test_cli_documents_are_compact_and_keep_every_bit(tmp_path, capsys, to_file):
    # a mechanism document, written to a file or to stdout, is one line of
    # compact JSON that parses back to the run's floats bit for bit
    instance, _ = files.load_instance(RUNNING)
    outcome = run_us_vcg(instance.types, instance)
    out = tmp_path / "result.json"
    capsys.readouterr()
    assert main(["mechanism", RUNNING, *(["--out", str(out)] if to_file else [])]) == 0
    text = out.read_text() if to_file else capsys.readouterr().out
    doc = json.loads(text)
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    stored = files.outcome_from_dict(doc)

    def hexes(o):
        d = o.decision
        return [x.hex() for x in (*d.allocation, d.tax, *o.raw_vcg, *o.payments, o.welfare)]

    assert hexes(stored) == hexes(outcome)
    for i, row in enumerate(doc["types"]):
        assert files.type_from_dict(row) == instance.types[i]


def _mechanism_document(tmp_path, doc: dict, *flags) -> Path:
    """The ``mechanism`` result of an instance document, as a file."""
    path, out = tmp_path / "source.json", tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    assert main(["mechanism", str(path), *flags, "--out", str(out)]) == 0
    return out


def test_cli_check_compares_the_profile_with_a_types_instance(tmp_path, capsys):
    # a result computed on other types is self-consistent, so re-running
    # it alone passes; check must compare its types with the instance's
    doc = json.loads(Path(RUNNING).read_text())
    doc["types"] = [{"alloc_weights": [0.5, 0.5], "money_weight": 1.0}] * 3
    out = _mechanism_document(tmp_path, doc)
    capsys.readouterr()
    assert main(["check", RUNNING, str(out)]) == 5
    assert "agent 0's type differs" in capsys.readouterr().err
    doc["types"] = [files.type_to_dict(t) for t in RUNNING_PROFILE]
    doc["types"][2] = {"alloc_weights": [0.5, 0.5], "money_weight": 1.0 + 1e-3}
    out = _mechanism_document(tmp_path, doc)
    assert main(["check", RUNNING, str(out)]) == 5
    assert "agent 2's type differs" in capsys.readouterr().err
    out = _mechanism_document(tmp_path, json.loads(Path(RUNNING).read_text()))
    assert main(["check", RUNNING, str(out)]) == 0


def test_cli_check_compares_the_profile_with_the_ballots(tmp_path, capsys):
    # each type must reproduce the ratios w_j / w_money its ballot
    # determines; a type that does not is named
    out = tmp_path / "result.json"
    assert main(["mechanism", BALLOTS, "--out", str(out)]) == 0
    assert main(["check", BALLOTS, str(out)]) == 0
    types = json.loads(out.read_text())["types"]
    types[1]["money_weight"] *= 1.01
    doc = {k: v for k, v in json.loads(Path(BALLOTS).read_text()).items() if k != "ballots"}
    out = _mechanism_document(tmp_path, {**doc, "types": types})
    capsys.readouterr()
    assert main(["check", BALLOTS, str(out)]) == 5
    assert "agent 1's type differs from the ratios" in capsys.readouterr().err
    out = _mechanism_document(tmp_path, {**doc, "n": 2, "types": types[:2]})
    assert main(["check", BALLOTS, str(out)]) == 5
    assert "2 types, the instance 3 agents" in capsys.readouterr().err


def test_cli_check_leaves_follow_up_goods_free(tmp_path, capsys):
    # check takes no answers: a good the ballot leaves to a follow-up may
    # carry any weight, while the funded goods' ratios must still match
    doc = json.loads(Path(BALLOTS).read_text())
    doc["gain_curves"][1] = {"kind": "log1p", "scale": 0.4}
    doc["ballots"][0] = {"allocation": [1.0, 0.0], "tax": 396.0}
    source = tmp_path / "ballots.json"
    source.write_text(json.dumps(doc))
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"answers": [{"agent": 0, "good": 1, "tau": 5.0}]}))
    out = tmp_path / "result.json"
    assert main(["mechanism", str(source), "--answers", str(answers), "--out", str(out)]) == 0
    assert main(["check", str(source), str(out)]) == 0
    types = json.loads(out.read_text())["types"]
    w0, money = types[0]["alloc_weights"][0], types[0]["money_weight"]
    ratio = w0 / money
    types[0] = {"alloc_weights": [0.9, 0.1], "money_weight": 0.9 / ratio}
    assert types[0]["alloc_weights"][0] != w0
    plain = {k: v for k, v in doc.items() if k != "ballots"}
    out = _mechanism_document(tmp_path, {**plain, "types": types})
    capsys.readouterr()
    assert main(["check", str(source), str(out)]) == 0
    types[0]["money_weight"] *= 1.01
    out = _mechanism_document(tmp_path, {**plain, "types": types})
    assert main(["check", str(source), str(out)]) == 5
    assert "agent 0's type differs" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["cut_payments", "shift_raw_vcg"])
def test_cli_check_catches_tampered_schedules(tmp_path, capsys, tamper):
    # a schedule cut short, or raw pivots that no longer match, is a
    # mismatch: check compares every entry of every schedule
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if tamper == "cut_payments":
        doc["payments"] = doc["payments"][:1]
    else:
        doc["raw_vcg"] = [p + 1000.0 for p in doc["raw_vcg"]]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", RUNNING, str(out)]) == 5
    assert "check: MISMATCH" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["residuals_and_utilities", "cut_residuals", "null_residuals"])
def test_cli_check_compares_the_stored_identity(tmp_path, capsys, tamper):
    # the stored residuals come from the run's own pivot solves: check
    # bounds every one of them, and the realised utilities must match
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if tamper == "residuals_and_utilities":
        doc["identity_residuals"] = [1e3] * 3
        doc["realized_utilities"] = [-1e3] * 3
    elif tamper == "cut_residuals":
        doc["identity_residuals"] = doc["identity_residuals"][:1]
    else:
        doc["identity_residuals"] = None
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", RUNNING, str(out)]) == 5
    assert "check: MISMATCH" in capsys.readouterr().err


def test_cli_check_refuses_non_numeric_identity_entries(tmp_path, capsys):
    # a schema error (exit 2) naming the field, not a Python traceback
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, value in (("identity_residuals", ["x", 0.0, 0.0]), ("realized_utilities", 1.0)):
        tampered = {**doc, key: value}
        out.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(["check", RUNNING, str(out)]) == 2
        assert key in capsys.readouterr().err


def _tampered_check(tmp_path, command: str, **fields) -> list[str]:
    """``check`` argv for a ``solve --mean`` or ``mechanism`` document of
    the running example with ``fields`` replaced (None: removed)."""
    out = tmp_path / "result.json"
    run = ["solve", RUNNING, "--mean"] if command == "solve" else ["mechanism", RUNNING]
    assert main([*run, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, value in fields.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    out.write_text(json.dumps(doc))
    return ["check", RUNNING, str(out)]


def _tampered_instance(tmp_path, source: str, mutate) -> list[str]:
    """``mechanism`` argv for a copy of the fixture ``source`` changed in
    place by ``mutate(doc)``."""
    doc = json.loads(Path(source).read_text())
    mutate(doc)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return ["mechanism", str(path)]


def _set_ballot_allocation(value):
    return lambda doc: doc["ballots"][1].update(allocation=value)


def _set_type_weights(value):
    return lambda doc: doc["types"][1].update(alloc_weights=value)


def _answers(tmp_path, row: dict) -> list[str]:
    """``mechanism`` argv for the ballots fixture with one follow-up answer."""
    path = tmp_path / "answers.json"
    path.write_text(json.dumps({"answers": [{"agent": 1, "good": 0, "tau": 5.0, **row}]}))
    return ["mechanism", BALLOTS, "--answers", str(path)]


def _converge(tmp_path, doc: dict, n_list: str = "10", *flags: str) -> list[str]:
    """``converge`` argv for the triplet or instance document ``doc``."""
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc))
    return ["converge", str(path), "--n-list", n_list, *flags]


_HUGE = 10**400  # a JSON integer that no float holds

_BIAS = {"lambda": 0.5, "target": {"kind": "equitable"}}

_TRIPLET = {
    "b0": 0.0,
    "mean_type": {"alloc_weights": [0.4, 0.6], "money_weight": 1.0},
    "gain_curves": [{"kind": "log", "scale": 10.0}, {"kind": "log", "scale": 10.0}],
    "money_curve": {"kind": "power", "q": 0.5},
}


_MALFORMED = {
    "ballot_entry_string": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation(["x", 1.0])),
    "ballot_entry_null": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation([None, 1.0])),
    "ballot_entry_bool": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation([False, True])),
    "ballot_entry_numeric_string": lambda tmp: _tampered_instance(
        tmp, BALLOTS, _set_ballot_allocation(["0.0", 1.0])
    ),
    "ballot_allocation_number": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation(5)),
    "ballot_allocation_short": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation([1.0])),
    "tax_weights_string": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc.update(tax_weights=["x", 1.0, 2.0])
    ),
    "tax_weights_null": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc.update(tax_weights=[None, 1.0, 2.0])
    ),
    "tax_weights_nan": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc.update(tax_weights=[math.nan, 1.0, 2.0])
    ),
    "type_weight_bool": lambda tmp: _tampered_instance(tmp, RUNNING, _set_type_weights([False, True])),
    "type_weight_numeric_string": lambda tmp: _tampered_instance(
        tmp, RUNNING, _set_type_weights(["0.0", "1.0"])
    ),
    "raw_vcg_entry": lambda tmp: _tampered_check(tmp, "mechanism", raw_vcg=["x", 0.0, 0.0]),
    "payments_number": lambda tmp: _tampered_check(tmp, "mechanism", payments=5),
    "types_number": lambda tmp: _tampered_check(tmp, "mechanism", types=5),
    "variant_list": lambda tmp: _tampered_check(tmp, "mechanism", variant=[1]),
    "hetero_string": lambda tmp: _tampered_check(tmp, "mechanism", variant={"hetero": "false"}),
    "solve_without_agent": lambda tmp: _tampered_check(tmp, "solve", agent=None),
    "solve_without_valuation": lambda tmp: _tampered_check(tmp, "solve", valuation=None),
    "agent_index_past_the_end": lambda tmp: ["solve", RUNNING, "--agent-index", "7"],
    "negative_agent_index": lambda tmp: ["solve", RUNNING, "--agent-index", "-1"],
    "type_not_numbers": lambda tmp: ["solve", RUNNING, "--type", "a,b,c"],
    "n_list_not_integers": lambda tmp: ["converge", RUNNING, "--n-list", "10,x"],
    "negative_trials": lambda tmp: ["fuzz", RUNNING, "--trials", "-5"],
    # counts must be integral, not truncated
    "m_fraction": lambda tmp: _tampered_instance(tmp, RUNNING, lambda doc: doc.update(m=2.5)),
    "n_fraction": lambda tmp: _tampered_instance(tmp, RUNNING, lambda doc: doc.update(n=3.9)),
    "answer_agent_fraction": lambda tmp: _answers(tmp, {"agent": 1.5}),
    "answer_good_fraction": lambda tmp: _answers(tmp, {"good": 0.5}),
    # an answer for no agent or good of the instance (n = 3, m = 2), or a
    # negative tax increase, is refused, not dropped
    **{
        f"answer_{name}": lambda tmp, row=row: _answers(tmp, row)
        for name, row in (
            ("agent_99", {"agent": 99}),
            ("agent_negative", {"agent": -1}),
            ("agent_n", {"agent": 3}),
            ("good_past_the_end", {"good": 7}),
            ("tau_negative", {"tau": -5.0}),
        )
    },
    "triplet_gain_curves_number": lambda tmp: _converge(tmp, {**_TRIPLET, "gain_curves": 5}),
    "instance_mu_string": lambda tmp: _converge(
        tmp, {**json.loads(Path(RUNNING).read_text()), "mu": "abc"}
    ),
    # the money-weight band [1/mu, mu] needs 1 <= mu < inf
    **{
        f"fuzz_mu_{name}": lambda tmp, mu=mu: ["fuzz", RUNNING, "--trials", "1", "--mu", mu]
        for name, mu in (("zero", "0"), ("negative", "-1"), ("nan", "nan"), ("inf", "inf"), ("below_one", "0.5"))
    },
    # a JSON integer too large for a float, in every field of numbers
    "n_huge": lambda tmp: _tampered_instance(tmp, RUNNING, lambda doc: doc.update(n=_HUGE)),
    "external_budget_huge": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc.update(external_budget=_HUGE)
    ),
    "type_weight_huge": lambda tmp: _tampered_instance(tmp, RUNNING, _set_type_weights([_HUGE, 1.0])),
    "money_weight_huge": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc["types"][1].update(money_weight=_HUGE)
    ),
    "tax_weights_huge": lambda tmp: _tampered_instance(
        tmp, RUNNING, lambda doc: doc.update(tax_weights=[_HUGE, 1.0, 2.0])
    ),
    "ballot_entry_huge": lambda tmp: _tampered_instance(tmp, BALLOTS, _set_ballot_allocation([_HUGE, 1.0])),
    "ballot_tax_huge": lambda tmp: _tampered_instance(
        tmp, BALLOTS, lambda doc: doc["ballots"][1].update(tax=_HUGE)
    ),
    # run parameters that used to crash, pass vacuously or run another study
    **{
        f"fuzz_coalition_{name}": lambda tmp, k=k: ["fuzz", RUNNING, "--trials", "1", "--coalition", k]
        for name, k in (("zero", "0"), ("negative", "-1"), ("n", "3"))
    },
    "fuzz_negative_seed": lambda tmp: ["fuzz", RUNNING, "--trials", "1", "--seed", "-1"],
    "coalition_negative_seed": lambda tmp: [
        "fuzz", RUNNING, "--trials", "1", "--coalition", "1", "--seed", "-1"
    ],
    "converge_negative_seed": lambda tmp: _converge(tmp, _TRIPLET, "10", "--seed", "-1"),
    **{
        f"n_list_{name}": lambda tmp, n_list=n_list: _converge(tmp, _TRIPLET, n_list)
        for name, n_list in (
            ("empty", ""), ("zero", "0"), ("negative", "-5"), ("decreasing", "5,3"), ("repeated", "2,2")
        )
    },
    "n_list_one_non_positive": lambda tmp: _converge(tmp, _TRIPLET, "1,4", "--non-positive"),
    # a result document names at most one variant
    "variant_bias_and_hetero": lambda tmp: _tampered_check(
        tmp, "mechanism", variant={"bias": _BIAS, "non_positive": False, "hetero": True}
    ),
    "variant_bias_and_non_positive": lambda tmp: _tampered_check(
        tmp, "mechanism", variant={"bias": _BIAS, "non_positive": {"gamma": 10.0}, "hetero": False}
    ),
    "variant_hetero_and_non_positive": lambda tmp: _tampered_check(
        tmp, "mechanism", variant={"bias": None, "non_positive": True, "hetero": True}
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    # every malformed input is a schema error (exit 2 with a message), not
    # a Python traceback, a quiet wrong answer or a vacuous pass
    argv = _MALFORMED[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def triplet_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("triplet") / "sigma.json"
    path.write_text(json.dumps(_TRIPLET))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(
    converge=st.booleans(),
    seed=st.integers(-(2**70), 2**70),
    trials=st.integers(-2, 2),
    coalition=st.one_of(st.none(), st.integers(-2, 4)),
    mu=st.one_of(st.floats(0.5, 1e14), st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
    n_list=st.lists(st.integers(-3, 6), max_size=3),
)
@example(converge=False, seed=2, trials=50, coalition=None, mu=1e12, n_list=[])
def test_cli_run_parameters_exit_0_2_or_5(triplet_path, converge, seed, trials, coalition, mu, n_list):
    # ``fuzz`` on the running example (n = 3) and ``converge`` on a triplet
    # run, refuse a parameter (2) or report a failed property (5): no
    # traceback, no engine error from a run parameter.  A wide band draws
    # money weights whose optimum lies past the tax cap; the fuzzers count
    # such a trial as diverged and go on (the example exited 3, with
    # TaxDivergence, before they did)
    flags = [f"--seed={seed}", f"--mu={mu!r}"]
    if converge:
        argv = ["converge", triplet_path, f"--n-list={','.join(map(str, n_list))}", *flags]
    else:
        argv = ["fuzz", RUNNING, f"--trials={trials}", *flags]
        if coalition is not None:
            argv.append(f"--coalition={coalition}")
    assert main(argv) in (0, 2, 5)


_MALFORMED_TARGETS = {
    "allocation_number": {"kind": "constant", "allocation": 5},
    "allocation_not_numbers": {"kind": "constant", "allocation": ["a", 0.5, 0.5]},
    "allocation_nan": {"kind": "constant", "allocation": [math.nan, 1.0]},
    "taxes_number": {"kind": "table", "taxes": 5, "allocations": [[0.5, 0.5]]},
    "taxes_not_numbers": {"kind": "table", "taxes": ["a"], "allocations": [[0.5, 0.5]]},
    "taxes_nan": {"kind": "table", "taxes": [math.nan], "allocations": [[0.5, 0.5]]},
    "allocations_number": {"kind": "table", "taxes": [0.0], "allocations": 5},
    "allocations_row_number": {"kind": "table", "taxes": [0.0], "allocations": [5]},
    "allocations_row_not_numbers": {"kind": "table", "taxes": [0.0], "allocations": [["a", 1.0]]},
    "allocations_ragged": {
        "kind": "table", "taxes": [0.0, 9.0], "allocations": [[0.5, 0.5], [0.2, 0.3, 0.5]]
    },
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TARGETS))
def test_cli_malformed_bias_target_exits_2(tmp_path, capsys, case):
    # a target that is not a list of finite numbers (a table: of rows of one
    # length) is a schema error, not a traceback or a document with NaN
    bias, out = tmp_path / "bias.json", tmp_path / "result.json"
    bias.write_text(json.dumps({"lambda": 0.5, "target": _MALFORMED_TARGETS[case]}))
    capsys.readouterr()
    assert main(["mechanism", RUNNING, "--bias", str(bias), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_cli_mechanism_refuses_a_target_of_another_length(tmp_path, capsys, lam):
    # the running example has 2 goods: a 3-entry target used to be cut to
    # (0.2, 0.3) by zip, and the run exited 0 with a result check passed
    bias, out = tmp_path / "bias.json", tmp_path / "result.json"
    target = {"kind": "constant", "allocation": [0.2, 0.3, 0.5]}
    bias.write_text(json.dumps({"lambda": lam, "target": target}))
    capsys.readouterr()
    assert main(["mechanism", RUNNING, "--bias", str(bias), "--out", str(out)]) == 3
    assert "one per good" in capsys.readouterr().err
    assert not out.exists()


def _variant_run(tmp_path, variant: str, n: int):
    """The variants_mixed catalog at n agents as an instance file, and the
    mechanism flags and ``identity_residuals`` keywords of one variant."""
    _, inst, weighted = variants_catalog(n)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(files.instance_to_dict(weighted if variant == "hetero" else inst)))
    if variant == "plain":
        return path, [], {}
    if variant == "hetero":
        return path, ["--hetero"], {"hetero": True}
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    bias_path = tmp_path / "bias.json"
    bias_path.write_text(json.dumps(files.bias_to_dict(bias)))
    return path, ["--bias", str(bias_path)], {"bias": bias}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("variant", ["plain", "biased", "hetero"])
def test_cli_residuals_from_the_run_equal_a_fresh_audit(tmp_path, variant, n):
    # the document's residuals, from the run's own pivot solves, are the
    # bits identity_residuals gets from solving them again, and its
    # realised utilities, from the decision's levels, those of
    # realized_utility
    path, flags, keywords = _variant_run(tmp_path, variant, n)
    out = tmp_path / "result.json"
    assert main(["mechanism", str(path), *flags, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    instance, _ = files.load_instance(path)
    outcome = files.outcome_from_dict(doc)
    audit = identity_residuals(instance.types, outcome, instance, **keywords)
    assert len(doc["identity_residuals"]) == n
    assert all(a == b for a, b in zip(doc["identity_residuals"], audit, strict=True))
    utilities = [realized_utility(instance.types, i, outcome, instance) for i in range(n)]
    assert [u.hex() for u in doc["realized_utilities"]] == [u.hex() for u in utilities]
    if n == 1:
        assert doc["identity_residuals"] == [0.0]
    assert main(["check", str(path), str(out)]) == 0


@pytest.mark.parametrize("variant", ["plain", "biased", "hetero"])
def test_cli_mechanism_solves_once_and_check_once(tmp_path, monkeypatch, variant):
    # n + 1 solves (the decision and one pivot per agent) for mechanism;
    # check runs again and audits the residuals from that run's pivot
    # solves, n + 1 more
    n = 5
    path, flags, _ = _variant_run(tmp_path, variant, n)
    solves, depth = [0], [0]
    for name in ("optimize", "optimize_biased", "optimize_hetero"):
        original = getattr(solver, name)

        def counted(*args, _original=original, **kwargs):
            if depth[0] == 0:
                solves[0] += 1
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        # every module holding the solver entry point, as bench/tracing.py rebinds them
        for key, module in list(sys.modules.items()):
            if key == "usvcg" or key.startswith("usvcg."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    out = tmp_path / "result.json"
    assert main(["mechanism", str(path), *flags, "--out", str(out)]) == 0
    assert solves[0] == n + 1
    assert main(["check", str(path), str(out)]) == 0
    assert solves[0] == 2 * (n + 1)


def test_cli_solve_and_check(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert main(["solve", RUNNING, "--mean", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", RUNNING, str(out)]) == 0
    assert "check: OK" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    doc["decision"]["tax"] += 1.0
    out.write_text(json.dumps(doc))
    assert main(["check", RUNNING, str(out)]) == 5
    assert "check: MISMATCH" in capsys.readouterr().err


def test_cli_mechanism_bias_and_check(tmp_path):
    bias_path = tmp_path / "bias.json"
    bias_path.write_text(json.dumps({"lambda": 1.0, "target": {"kind": "equitable"}}))
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--bias", str(bias_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.4 < doc["decision"]["allocation"][0] < 0.5
    assert main(["check", RUNNING, str(out)]) == 0


def test_cli_mechanism_bias_zero_matches_plain(tmp_path):
    bias_path = tmp_path / "bias.json"
    bias_path.write_text(
        json.dumps({"lambda": 0.0, "target": {"kind": "constant", "allocation": [0.5, 0.5]}})
    )
    plain = tmp_path / "plain.json"
    biased = tmp_path / "biased.json"
    assert main(["mechanism", RUNNING, "--out", str(plain)]) == 0
    assert main(["mechanism", RUNNING, "--bias", str(bias_path), "--out", str(biased)]) == 0
    a = json.loads(plain.read_text())
    b = json.loads(biased.read_text())
    assert a["decision"] == b["decision"]
    assert a["payments"] == b["payments"]


def test_cli_mechanism_hetero(tmp_path):
    doc = files.instance_to_dict(make_running_instance())
    doc["tax_weights"] = [1.5, 1.0, 0.5]
    doc["money_curve"] = {"kind": "kt", "q": 0.6, "r": 0.7, "loss_weight": 1.5}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    assert main(["mechanism", str(inst_path), "--hetero", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert max(abs(r) for r in res["identity_residuals"]) <= 1e-8
    assert main(["check", str(inst_path), str(out)]) == 0


def test_cli_mechanism_refuses_tax_weights_without_hetero(tmp_path, capsys):
    # plain and biased runs charge every agent t: a weighted instance needs --hetero
    doc = files.instance_to_dict(make_running_instance())
    doc["tax_weights"] = [1.5, 1.0, 0.5]
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    assert main(["mechanism", str(inst_path)]) == 3
    assert "--hetero" in capsys.readouterr().err


def test_cli_mechanism_non_positive_and_check(tmp_path):
    inst = make_running_instance(semantics="per_capita")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(inst)))
    out = tmp_path / "result.json"
    argv = ["mechanism", str(inst_path), "--non-positive", "--gamma", "1.5", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    expected = non_positive_payments(inst.types, inst, NonPositiveConfig(gamma=1.5))
    assert tuple(doc["payments"]) == expected
    assert doc["raw_vcg"] == list(run_us_vcg(inst.types, inst).raw_vcg)
    assert main(["check", str(inst_path), str(out)]) == 0

    doc["payments"][1] -= 0.5
    out.write_text(json.dumps(doc))
    assert main(["check", str(inst_path), str(out)]) == 5


def test_cli_non_positive_writes_the_runs_pivots_and_rebated_payments(tmp_path):
    # one run gives the document both schedules, bit for bit: the decision,
    # welfare and raw pivots of run_us_vcg and the payments of
    # non_positive_payments (gamma 2.0 covers the profile's spread, 1.594;
    # the two-sided kt money curve carries the rebate)
    profile = random_profile(np.random.default_rng(8), 5, 2)
    inst = BudgetInstance(
        m=2,
        n=5,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        semantics="per_capita",
        types=profile,
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(inst)))
    out = tmp_path / "result.json"
    argv = ["mechanism", str(inst_path), "--non-positive", "--gamma", "2.0", "--out", str(out)]
    assert main(argv) == 0
    written = files.outcome_from_dict(json.loads(out.read_text()))
    run = run_us_vcg(profile, inst)
    payments = non_positive_payments(profile, inst, NonPositiveConfig(gamma=2.0))

    def bits(values):
        return [float(v).hex() for v in values]

    assert written.decision == run.decision
    assert bits([written.welfare, *written.raw_vcg]) == bits([run.welfare, *run.raw_vcg])
    assert bits(written.payments) == bits(payments)
    assert max(payments) < 0.0


def test_cli_non_positive_documents_carry_no_step(tmp_path, capsys):
    # the finite-difference step is a library constant: the flag is gone
    # (an unknown option is a usage error, exit 2), the result document no
    # longer records it, and one written while it did still checks
    inst = make_running_instance(semantics="per_capita")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(inst)))
    out = tmp_path / "result.json"
    argv = ["mechanism", str(inst_path), "--non-positive", "--out", str(out)]
    with pytest.raises(SystemExit) as usage:
        main(argv + ["--fd-step", "1e-5"])
    assert usage.value.code == 2
    assert "--fd-step" in capsys.readouterr().err
    assert main(argv + ["--gamma", "1.5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["variant"]["non_positive"] == {"gamma": 1.5, "r": 0.0}
    doc["variant"]["non_positive"]["fd_step"] = 1e-5
    out.write_text(json.dumps(doc))
    assert main(["check", str(inst_path), str(out)]) == 0


@pytest.mark.parametrize("gains, money", BOUNDARY_CATALOGS)
def test_cli_non_positive_boundary_excluded_mean(tmp_path, capsys, gains, money):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(make_boundary_instance(gains, money))))
    assert main(["mechanism", str(inst_path), "--non-positive", "--gamma", "0.1"]) == 3
    assert "DomainError: agent 0: every other agent weights good 0 at 0" in capsys.readouterr().err


def test_cli_non_positive_gamma_below_the_profile_spread(tmp_path, capsys):
    # 0.6126 is the profile's spread over the allocation weights alone;
    # with the money weight it is 1.797
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(make_water_fill_kt_instance(6))))
    assert main(["mechanism", str(inst_path), "--non-positive", "--gamma", "0.6126"]) == 3
    assert "to the others' mean exceeds gamma 0.6126" in capsys.readouterr().err


def test_cli_non_positive_rebate_the_money_curve_cannot_carry(tmp_path, capsys):
    # gamma 1.6 covers the profile's spread (1.594), but on the one-sided
    # power money curve no payment carries the rebate it asks for: exit 3,
    # naming the agent, its raw pivot and the rebate
    profile = random_profile(np.random.default_rng(8), 5, 2)
    instance = BudgetInstance(
        m=2,
        n=5,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
        types=profile,
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(instance)))
    assert main(["mechanism", str(inst_path), "--non-positive", "--gamma", "1.6"]) == 3
    err = capsys.readouterr().err
    assert "RangeError: agent 0: raw pivot 0.584458 minus rebate 19.82" in err


@pytest.mark.parametrize(
    "flags", [("--gamma", "1e308"), ("--gamma", "inf"), ("--rebate", "nan"), ("--rebate", "inf")]
)
def test_cli_non_positive_refuses_a_rebate_that_is_not_finite(tmp_path, capsys, monkeypatch, flags):
    # a gamma whose square overflows, or a gamma or rebate constant that is
    # not finite, exits 3 before any solve (gamma 1e308 used to end in an
    # OverflowError traceback after every solve of the run)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(files.instance_to_dict(make_running_instance(semantics="per_capita"))))
    solves = []
    original = solver._solve

    def counted(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_solve", counted)
    assert main(["mechanism", str(inst_path), "--non-positive", *flags]) == 3
    assert "DomainError: " in capsys.readouterr().err
    assert solves == []


def test_cli_non_positive_default_gamma(tmp_path):
    # a two-sided money curve can absorb the large rebate a wide band gives
    doc = files.instance_to_dict(make_running_instance(semantics="per_capita"))
    doc["money_curve"] = {"kind": "kt", "q": 0.6, "r": 0.7, "loss_weight": 1.5}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    assert main(["mechanism", str(inst_path), "--non-positive", "--mu", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["variant"]["non_positive"]["gamma"] == NonPositiveConfig.for_band(3.0).gamma
    assert main(["check", str(inst_path), str(out)]) == 0

    # a document without gamma is re-verified at the default band
    assert main(["mechanism", str(inst_path), "--non-positive", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["variant"]["non_positive"]["gamma"]
    out.write_text(json.dumps(doc))
    assert main(["check", str(inst_path), str(out)]) == 0

    # a gamma of 0, given or stored, is refused as any gamma <= 0 is, not
    # replaced by the default
    assert main(["mechanism", str(inst_path), "--non-positive", "--gamma", "0"]) == 3
    doc["variant"]["non_positive"]["gamma"] = 0
    out.write_text(json.dumps(doc))
    assert main(["check", str(inst_path), str(out)]) == 3


def test_cli_fuzz_pass_and_fail(tmp_path):
    out = tmp_path / "fuzz.json"
    csv_path = tmp_path / "fuzz.csv"
    rc = main(
        ["fuzz", RUNNING, "--trials", "40", "--seed", "3",
         "--misreport-space", "allocation", "--csv", str(csv_path), "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,gain"
    assert len(lines) == 41

    rc = main(["fuzz", RUNNING, "--trials", "40", "--seed", "3", "--out", str(out)])
    assert rc == 5  # full-space misreports expose the money-weight channel


def test_cli_fuzz_warns_when_no_trial_measured_a_gain(monkeypatch, tmp_path):
    # every misreported profile diverges and no drawn one does: the fuzz
    # passes with no gain measured, and says that the pass is vacuous
    diverging_lies(monkeypatch)
    out = tmp_path / "fuzz.json"
    assert main(["fuzz", RUNNING, "--trials", "5", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["diverged"] == 0 and doc["misreports_diverged"] == 5
    assert doc["warning"] == "no trial measured a gain; the pass is vacuous"


def test_cli_fuzz_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(
            ["fuzz", RUNNING, "--trials", "25", "--seed", "11",
             "--misreport-space", "allocation", "--out", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_coalition_probe(tmp_path):
    # the CLI report is the library's, on the misreport space the flag names
    out = tmp_path / "coalition.json"
    instance, _ = files.load_instance(RUNNING)
    for flags, space in (([], "full"), (["--misreport-space", "allocation"], "allocation")):
        rc = main(
            ["fuzz", RUNNING, "--trials", "12", "--seed", "7", "--coalition", "2",
             *flags, "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        expected = coalition_probe(instance, 2, 12, seed=7, misreport_space=space)
        assert doc == json.loads(json.dumps(expected.as_dict()))
        assert doc["experiment"] == "coalition_probe"
        assert doc["misreport_space"] == space
        assert rc == (0 if expected.passed else 5)


def test_cli_converge(tmp_path):
    sigma = {
        "b0": 0.0,
        "mu": 2.0,
        "mean_type": {"alloc_weights": [0.4, 0.6], "money_weight": 31.0 / 30.0},
        "gain_curves": [{"kind": "log", "scale": 10.0}, {"kind": "log", "scale": 10.0}],
        "money_curve": {"kind": "power", "q": 0.5},
    }
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(sigma))
    out = tmp_path / "converge.json"
    csv_path = tmp_path / "converge.csv"
    rc = main(
        ["converge", str(sigma_path), "--n-list", "10,40", "--seed", "5",
         "--csv", str(csv_path), "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [r["n"] for r in doc["rows"]] == [10, 40]
    assert csv_path.read_text().startswith("n,max_abs_payment")


def _python_m_usvcg(*argv):
    """``python -m usvcg ARGV`` in a child process importing this package."""
    src = str(Path(usvcg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "usvcg", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_usvcg_runs_the_cli(tmp_path):
    usage = _python_m_usvcg("--help")
    assert usage.returncode == 0
    assert "mechanism" in usage.stdout
    out = tmp_path / "result.json"
    assert main(["mechanism", RUNNING, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["identity_residuals"] = None
    out.write_text(json.dumps(doc))
    checked = _python_m_usvcg("check", RUNNING, str(out))
    assert checked.returncode == 5
    assert "check: MISMATCH" in checked.stderr


def test_cli_exit_codes(tmp_path):
    assert main(["solve", "missing.json", "--mean"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--mean"]) == 2

    # diverging-tax instance: engine error -> 3
    divergent = {
        "m": 1,
        "n": 1000000000,
        "external_budget": 0.0,
        "semantics": "nominal",
        "mrs_convention": "n_scaled",
        "gain_curves": [{"kind": "power", "scale": 1.0, "exponent": 0.3}],
        "money_curve": {"kind": "power", "q": 0.5},
    }
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps(divergent))
    assert main(["solve", str(div_path), "--type", "1,1"]) == 3


def test_cli_rows_that_are_not_objects(tmp_path, capsys):
    # a ballot or type row that is a number is a schema error (exit 2 with
    # the row named), not a Python traceback
    ballots = json.loads(open(BALLOTS).read())
    types = json.loads(open(RUNNING).read())
    types["types"][0] = 5
    cases = [({**ballots, "ballots": [1, 2, 3]}, "ballots[0]"), (types, "types[0]")]
    for k, (doc, row) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--mean"]) == 2
        assert row in capsys.readouterr().err
