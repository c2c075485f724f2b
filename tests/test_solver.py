"""Two-stage solver, biased/heterogeneous variants, equitable split, oracle."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RUNNING_PROFILE,
    make_kt_branch_instance,
    make_running_instance,
    random_instance,
    random_profile,
    variants_catalog,
)
from usvcg import (
    AgentType,
    BiasSpec,
    BudgetDecision,
    BudgetInstance,
    CharacteristicTriplet,
    ConstantTarget,
    DomainError,
    EquitableTarget,
    GainCurve,
    MoneyCurve,
    NonUniqueOptimum,
    ResolutionTooCoarse,
    TableTarget,
    TaxDivergence,
    TaxPreference,
    UsvcgError,
    corresponding_type,
    equitable_allocation,
    excluded_means,
    grid_oracle,
    inner_allocation,
    mean_type,
    optimize,
    optimize_biased,
    optimize_hetero,
    run_bus_vcg,
    run_us_vcg,
    run_us_vcg_hetero,
    sdsic_fuzz,
    sigma_population,
    social_welfare,
    valuation,
)
from usvcg import solver
from usvcg.solver import (
    _Conditional,
    _water_fill,
    bias_value,
)


# =============================================================================
# Inner allocation
# =============================================================================


def test_log_allocation_equals_weights():
    inst = make_running_instance()
    for budget in (1.0, 100.0, 1e6):
        x = inner_allocation(AgentType((0.7, 0.3), 1.0), budget, inst)
        assert np.allclose(x, [0.7, 0.3], atol=1e-12)


def test_uniform_weights_identical_curves():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.power(2.0, 0.4), GainCurve.power(2.0, 0.4)),
    )
    x = inner_allocation(AgentType((0.5, 0.5), 1.0), 50.0, inst)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)


def test_mixed_catalog_matches_grid_argmax():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.power(1.0, 0.5)),
    )
    agent = AgentType((0.5, 0.5), 1.0)
    budget = 100.0
    x = inner_allocation(agent, budget, inst)
    # independent 1-D scan of the inner objective
    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    vals = 0.5 * 10.0 * np.log(grid * budget) + 0.5 * np.sqrt((1 - grid) * budget)
    best = grid[int(np.argmax(vals))]
    assert abs(x[0] - best) <= 1e-3
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)


def test_zero_weight_goods_get_nothing():
    inst = make_running_instance()
    x = inner_allocation(AgentType((0.0, 1.0), 1.0), 10.0, inst)
    assert x[0] == 0.0 and x[1] == 1.0


def test_corner_clipping_with_finite_marginal():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.log1p(0.4)),
    )
    # weighted marginal of good 2 at zero spend is 0.005*0.4 = 0.002, below
    # the common level 0.995*10/budget for any budget under ~4975
    x = inner_allocation(AgentType((0.995, 0.005), 1.0), 1000.0, inst)
    assert x[1] == 0.0 and x[0] == 1.0


def test_log1p_catalog_at_a_tiny_pool_takes_the_zero_pool_limit():
    # below a pool of about 1.1e-16 every log1p spend (B + 1) - 1 at the
    # start level rounds to 0; the good of the larger marginal at zero spend
    # takes the pool, as it does at 1e-15, instead of a ZeroDivisionError
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log1p(2.0), GainCurve.log1p(3.0)),
    )
    laws = solver._spend_laws((0.5, 0.5), inst.gain_curves)
    for budget in (1e-15, 1e-16, 1e-17, 1e-300, 5e-324):
        x = inner_allocation(AgentType((0.5, 0.5), 1.0), budget, inst)
        assert x.tolist() == [0.0, 1.0]
        _, gains, marginal, levels, _ = solver._water_fill(laws, inst.gain_curves, budget)
        assert levels == [0.0, inst.gain_curves[1].value(budget)]
        assert gains == 0.5 * levels[1]
        assert marginal == pytest.approx(0.5 * 3.0, rel=1e-15)


# =============================================================================
# Water-filling
# =============================================================================

_CURVE = st.one_of(
    st.builds(GainCurve.log, st.floats(0.1, 50.0)),
    st.builds(GainCurve.power, st.floats(0.1, 50.0), st.floats(0.1, 0.9)),
    st.builds(GainCurve.log1p, st.floats(0.1, 50.0)),
)


@st.composite
def _catalogs(draw):
    curves = draw(st.lists(_CURVE, min_size=2, max_size=4))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
            min_size=len(curves),
            max_size=len(curves),
        ).filter(lambda ws: sum(w > 0.0 for w in ws) >= 2)
    )
    return weights, curves


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(GainCurve, name)

    def counted(self, arg):
        calls.append(1)
        return original(self, arg)

    monkeypatch.setattr(GainCurve, name, counted)
    return calls


def _bisected_fill(weights, curves, budget):
    """(allocation, lambda) by bisection on lambda down to adjacent floats:
    the total spend falls as lambda rises, from at least the budget at
    max_j w_j theta_j'(budget) to at most it at max_j w_j theta_j'(budget/k)."""
    goods = [(w, curve) for w, curve in zip(weights, curves) if w > 0.0]

    def spends(lam):
        return [
            curve.inverse_deriv(lam / w) if lam < w * curve.deriv_at_zero() else 0.0
            for w, curve in goods
        ]

    lo = max(w * curve.deriv(budget) for w, curve in goods)
    hi = max(w * curve.deriv(budget / len(goods)) for w, curve in goods)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if math.fsum(spends(mid)) > budget:
            lo = mid
        else:
            hi = mid
    funded = iter(np.array(spends(lo)) / math.fsum(spends(lo)))
    return np.array([next(funded) if w > 0.0 else 0.0 for w in weights]), lo


def _fill(weights, curves, budget):
    """``_water_fill`` on the spend laws of the goods of positive weight."""
    return _water_fill(solver._spend_laws(weights, curves), curves, budget)


@given(catalog=_catalogs(), budget=st.floats(1e-6, 1e6))
@settings(max_examples=300, deadline=None)
def test_water_fill_meets_kkt_and_matches_bisection(catalog, budget):
    weights, curves = catalog
    x, _, lam, _, _ = _fill(weights, curves, budget)
    for w, xj, curve in zip(weights, x, curves):
        if xj > 0.0:
            assert w * curve.deriv(xj * budget) == pytest.approx(lam, rel=1e-9, abs=0.0)
        elif w > 0.0:
            assert w * curve.deriv_at_zero() <= lam
    x_ref, lam_ref = _bisected_fill(weights, curves, budget)
    assert np.allclose(x, x_ref, rtol=0.0, atol=1e-9)
    assert lam == pytest.approx(lam_ref, rel=1e-9, abs=0.0)


@given(catalog=_catalogs(), budget=st.floats(1e-6, 1e6))
@settings(max_examples=300, deadline=None)
def test_water_fill_takes_at_most_eight_sweeps(catalog, budget):
    # Newton descends from the level where the best good alone spends the
    # budget; each sweep evaluates every good's spend law once, and the
    # fill reports its sweeps
    weights, curves = catalog
    assert _fill(weights, curves, budget)[4] <= 8


@pytest.mark.parametrize(
    "scales, weights, budget, expected",
    [
        ((17.954, 16.161), (3.3857, 8.9038), 5.32e-4, [0.0, 1.0]),
        ((45.0, 5.75), (4.7, 2.5), 1.5e-4, [1.0, 0.0]),
        ((26.07925961031258, 47.57272111997083), (1.8695163208365204, 9.512169747803817),
         8.619743766571898e-05, [0.0, 1.0]),
    ],
)
def test_water_fill_stops_at_the_rounding_floor(scales, weights, budget, expected):
    # two log1p goods at a tiny pool: one is funded, and its spend
    # c mu - 1 carries a rounding error of about 1e-16, as large as the
    # residual bound 1e-13 of the pool; where it misses the bound, Newton
    # stops once its step no longer lowers mu (the third case, after one
    # sweep, would loop to the iteration cap without that stop; the first
    # two end within the bound)
    curves = tuple(GainCurve.log1p(a) for a in scales)
    x = _fill(weights, curves, budget)[0]
    assert x.tolist() == expected


def test_water_fill_returns_at_a_vanishing_tolerance(monkeypatch):
    monkeypatch.setattr(solver, "_X_TOLERANCE", 1e-300)
    x, _, lam, _, _ = _fill((1.0, 1.0), (GainCurve.log(10.0),) * 2, 3.0)
    assert x.tolist() == [0.5, 0.5] and lam == pytest.approx(20.0 / 3.0, rel=1e-15)
    mixed = (GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0))
    x = _fill((0.5, 0.3, 0.2), mixed, 300.0)[0]
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-15)


_OVERFLOW_CASE = (
    (0.06142889839419747, 0.00011761377621675979, 4644.446484465659, 3.779886705070044),
    (
        GainCurve.power(829.9637116363565, 0.4076448035910222),
        GainCurve.log(0.040625629544154024),
        GainCurve.log1p(71.16327482463628),
        GainCurve.power(0.0010709090919621218, 0.9748944199852064),
    ),
    9.192832898781936e-05,
)


def test_water_fill_survives_a_curvature_overflow():
    # the last good (power, exponent 0.975) is left a spend of about 3e-316,
    # where theta'' = a e (e - 1) s**(e - 2) overflows: deriv2 gives -inf
    # there, while the spend law's rate p s/mu stays finite, and the fill
    # meets KKT
    weights, curves, budget = _OVERFLOW_CASE
    assert curves[3].deriv2(3e-316) == -math.inf
    x, _, lam, _, _ = _fill(weights, curves, budget)
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)
    for w, xj, curve in zip(weights, x, curves):
        assert xj > 0.0
        assert w * curve.deriv(xj * budget) == pytest.approx(lam, rel=1e-9, abs=0.0)


def _exact_spend(curve, weight, lam, mp):
    """theta'^-1(lambda/w) from the curve's definition, clipped at 0."""
    a, marginal = mp.mpf(curve.scale), mp.mpf(lam) / mp.mpf(weight)
    if curve.kind == "log":
        return a / marginal
    if curve.kind == "log1p":
        return max(a / marginal - 1, mp.mpf(0))
    e = mp.mpf(curve.exponent)
    return (marginal / (a * e)) ** (1 / (e - 1))


def _exact_fill(weights, curves, budget, mp):
    """(lambda, shares) at 50 digits: bisection on log lambda, where the
    total spend falls as lambda rises, down to 1e-45 relative."""
    goods = [(w, curve) for w, curve in zip(weights, curves) if w > 0.0]
    pool = mp.mpf(budget)
    lo, hi = mp.mpf(1e-300), mp.mpf(1e300)
    while hi / lo - 1 > mp.mpf(10) ** -45:
        mid = mp.sqrt(lo * hi)
        if mp.fsum(_exact_spend(curve, w, mid, mp) for w, curve in goods) > pool:
            lo = mid
        else:
            hi = mid
    lam = mp.sqrt(lo * hi)
    shares = [
        _exact_spend(c, w, lam, mp) / pool if w > 0.0 else mp.mpf(0) for w, c in zip(weights, curves)
    ]
    return lam, shares


def _oracle_fills():
    # 80 seeded mixed catalogs of 2-4 goods, some weights 0, budgets 1e-6
    # to 1e6; log1p goods clipped at zero spend; the curvature overflow
    rng = np.random.default_rng(2025)
    cases = []
    while len(cases) < 80:
        m = int(rng.integers(2, 5))
        curves = []
        for kind in rng.integers(0, 3, m):
            scale = float(rng.uniform(0.1, 50.0))
            curves.append(
                GainCurve.log(scale) if kind == 0
                else GainCurve.power(scale, float(rng.uniform(0.1, 0.9))) if kind == 1
                else GainCurve.log1p(scale)
            )
        weights = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 10.0)) for _ in range(m)]
        if sum(w > 0.0 for w in weights) >= 2:
            cases.append((weights, curves, float(10.0 ** rng.uniform(-6.0, 6.0))))
    clipped = (GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(0.4))
    cases += [
        ((0.995, 0.005), (GainCurve.log(10.0), GainCurve.log1p(0.4)), 1000.0),
        ((0.6, 0.3, 0.1), clipped, 2.0),
        (
            (0.2, 0.1, 0.7),
            (GainCurve.log1p(4.0), GainCurve.log1p(0.3), GainCurve.power(2.0, 0.5)),
            0.05,
        ),
        _OVERFLOW_CASE,
    ]
    return cases


def test_water_fill_matches_a_50_digit_fill():
    # lambda within 1e-12 relative (8.4e-14 seen), shares within
    # 1e-13 + 1e-15 (1 + budget)/budget absolute (1.7e-14 seen off the
    # rounding floor of log1p's c mu - 1, whose spend carries about one
    # ulp of c mu: 1.3e-11 in a share at a budget of 6.5e-6)
    mp = pytest.importorskip("mpmath")
    clipped = 0
    with mp.workdps(50):
        for weights, curves, budget in _oracle_fills():
            x, _, lam, _, _ = _fill(weights, curves, budget)
            lam_ref, shares = _exact_fill(weights, curves, budget, mp)
            assert abs(mp.mpf(lam) / lam_ref - 1) <= 1e-12
            bound = 1e-13 + 1e-15 * (1.0 + budget) / budget
            for xj, ref in zip(x.tolist(), shares):
                assert abs(mp.mpf(xj) - ref) <= bound
            clipped += sum(w > 0.0 and ref == 0 for w, ref in zip(weights, shares))
    assert clipped >= 3


@given(
    goods=st.lists(
        st.tuples(st.floats(1e-6, 1e3), st.floats(1e-3, 1e3), st.booleans()),
        min_size=1,
        max_size=4,
    ).filter(lambda goods: not all(zero for _, _, zero in goods)),
)
@settings(max_examples=200, deadline=None)
def test_all_log_constants_match_the_numpy_formula(goods):
    # the plain-float shares, total and log-constant carry the bits of the
    # numpy formula they replace
    weights = [0.0 if zero else w for w, _, zero in goods]
    curves = [GainCurve.log(scale) for _, scale, _ in goods]
    cond = _Conditional(weights, curves)
    active = [j for j, w in enumerate(weights) if w > 0.0]
    wa = np.array([weights[j] * curves[j].scale for j in active])
    shares = wa / wa.sum()
    x = np.zeros(len(curves))
    x[active] = shares
    assert cond._x.tobytes() == x.tobytes()
    assert cond._w_total.hex() == float(wa.sum()).hex()
    assert cond._const.hex() == float(np.dot(wa, np.log(shares))).hex()


@given(
    catalog=_catalogs(),
    budget=st.floats(1e-6, 1e6),
    before=st.lists(st.floats(1e-6, 1e6), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_inner_stage_is_a_pure_function_of_the_pool(catalog, budget, before):
    weights, curves = catalog
    fresh = _Conditional(weights, curves).at(budget)
    cond = _Conditional(weights, curves)
    for b in before:
        cond.at(b)
    again = cond.at(budget)
    assert again[0].tobytes() == fresh[0].tobytes() and again[1:] == fresh[1:]


# =============================================================================
# Optimal decisions (closed forms in the log family)
# =============================================================================

LOG_TAX_FORMS = [
    # (semantics, convention, expected tax for scale a, population n, money w)
    ("nominal", "n_scaled", lambda a, n, w: (2 * a / w) ** 2),
    ("nominal", "n_free", lambda a, n, w: (2 * a / (n * w)) ** 2),
    ("per_capita", "n_free", lambda a, n, w: (2 * a / w) ** 2),
    ("per_capita", "n_scaled", lambda a, n, w: (2 * n * a / w) ** 2),
]


@pytest.mark.parametrize("semantics,convention,form", LOG_TAX_FORMS)
def test_log_family_closed_form(semantics, convention, form):
    inst = make_running_instance(convention=convention, semantics=semantics)
    for agent in RUNNING_PROFILE:
        d = optimize(agent, inst)
        assert np.allclose(d.allocation, agent.alloc_weights, atol=1e-9)
        assert d.tax == pytest.approx(form(10.0, 3, agent.money_weight), rel=1e-7)


def test_running_example_mean_decision():
    inst = make_running_instance()
    d = optimize(mean_type(RUNNING_PROFILE), inst)
    assert np.allclose(d.allocation, [0.4, 0.6], atol=1e-9)
    assert d.tax == pytest.approx((20.0 / (31.0 / 30.0)) ** 2, rel=1e-7)
    d_rounded = optimize(AgentType((0.4, 0.6), 1.03), inst)
    assert d_rounded.tax == pytest.approx(377.0, abs=1.0)


def test_printed_ballot_taxes_under_n_free():
    inst = make_running_instance(convention="n_free")
    for agent, (_, printed_tax) in zip(RUNNING_PROFILE, ((None, 69.4), (None, 26.3), (None, 44.4))):
        d = optimize(agent, inst)
        assert d.tax == pytest.approx(printed_tax, abs=0.05)


def test_single_good_per_capita_power_family():
    p, q = 0.3, 0.5
    inst = BudgetInstance(
        m=1,
        n=7,
        external_budget=0.0,
        gain_curves=(GainCurve.power(1.0, p),),
        money_curve=MoneyCurve.power(q),
        semantics="per_capita",
    )
    d = optimize(AgentType((1.0,), 1.0), inst)
    closed = (p / q) ** (1.0 / (q - p))
    assert d.tax == pytest.approx(closed, rel=1e-7)
    # independent dense 1-D oracle
    ts = np.linspace(1e-6, 1.0, 1_000_000)
    vals = ts**p - ts**q
    t_grid = float(ts[int(np.argmax(vals))])
    assert abs(d.tax - t_grid) <= 2e-6


@pytest.mark.parametrize("semantics", ["nominal", "per_capita"])
@pytest.mark.parametrize("convention", ["n_scaled", "n_free"])
def test_mrs_residuals(semantics, convention):
    rng = np.random.default_rng(23)
    for _ in range(8):
        inst = dataclasses.replace(
            random_instance(rng, m=3, n=4, semantics=semantics),
            mrs_convention=convention,
        )
        agent = random_profile(rng, 1, 3)[0]
        d = optimize(agent, inst)
        pool = inst.pool(d.tax)
        f_slope = inst.money_curve.deriv(d.tax)
        factor = inst.mrs_factor()
        for w, x, curve in zip(agent.alloc_weights, d.allocation, inst.gain_curves):
            if x <= 0.0:
                continue
            ratio = factor * curve.deriv(x * pool) / f_slope
            target = agent.money_weight / w
            assert abs(ratio - target) <= 1e-6 * target


def test_dominance_over_random_decisions():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, m=2, n=3)
    agent = random_profile(rng, 1, 2)[0]
    d = optimize(agent, inst)
    best = valuation(agent, d, inst)
    floor = inst.tax_floor + max(inst.tax_epsilon, 1e-6)
    lo = max(floor, inst.money_curve.domain_min, 1e-6)
    for _ in range(1000):
        x1 = rng.uniform(0.0, 1.0)
        t = rng.uniform(lo, 50.0 * (1.0 + abs(d.tax)))
        try:
            v = valuation(agent, BudgetDecision((x1, 1.0 - x1), t), inst)
        except DomainError:
            continue
        assert v <= best + 1e-9


def test_solution_boundedness_over_money_band():
    inst = make_running_instance()
    rng = np.random.default_rng(9)
    taxes = []
    for _ in range(50):
        agent = AgentType(tuple(rng.dirichlet([1.0, 1.0])), float(rng.uniform(0.25, 4.0)))
        taxes.append(optimize(agent, inst).tax)
    # money weight >= 1/4 caps the preferred tax at (20*4)^2 in this family
    assert max(taxes) <= (20.0 * 4.0) ** 2 * (1.0 + 1e-9)
    assert max(taxes) < 1e7  # far below the bracket cap


def test_deterministic_output():
    inst = make_running_instance()
    agent = AgentType((0.35, 0.65), 0.9)
    assert optimize(agent, inst) == optimize(agent, inst)


def test_tax_divergence():
    # nominal power/power: t* grows like n^(p/(q-p)), n^9 at p = 0.45, far
    # past the fixed 1e12 cap at n = 1e5; at p = 0.3 it is n^1.5, inside it
    def instance(p):
        return BudgetInstance(
            m=1,
            n=100_000,
            external_budget=0.0,
            gain_curves=(GainCurve.power(1.0, p),),
            money_curve=MoneyCurve.power(0.5),
            semantics="nominal",
        )

    with pytest.raises(TaxDivergence):
        optimize(AgentType((1.0,), 1.0), instance(0.45))
    finite = optimize(AgentType((1.0,), 1.0), instance(0.3)).tax
    assert finite == pytest.approx(0.6**5 * 100_000**1.5, rel=1e-9)


# =============================================================================
# Biased optima
# =============================================================================


def test_zero_bias_is_identity():
    inst = make_running_instance()
    mean = mean_type(RUNNING_PROFILE)
    bias = BiasSpec(lam=0.0, target=EquitableTarget())
    assert optimize_biased(mean, bias, inst) == optimize(mean, inst)


def test_equitable_bias_closed_form():
    # identical log curves: phantom target is uniform at every tax, the
    # allocation shifts to (mean_j + lam/m) / (1 + lam), the tax stays put
    inst = make_running_instance()
    mean = mean_type(RUNNING_PROFILE)
    lam = 1.0
    d = optimize_biased(mean, BiasSpec(lam=lam, target=EquitableTarget()), inst)
    expected = [(0.4 + lam / 2) / (1 + lam), (0.6 + lam / 2) / (1 + lam)]
    assert np.allclose(d.allocation, expected, atol=1e-7)
    assert d.tax == pytest.approx(optimize(mean, inst).tax, rel=1e-6)


def test_equitable_bias_matches_manual_grid():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.power(1.0, 0.5)),
    )
    mean = mean_type(RUNNING_PROFILE)
    bias = BiasSpec(lam=0.8, target=EquitableTarget())
    d = optimize_biased(mean, bias, inst)
    best = valuation(mean, d, inst) + bias_value(bias, d, inst)
    rng = np.random.default_rng(17)
    for _ in range(400):
        x1 = rng.uniform(0.01, 0.99)
        t = d.tax * rng.uniform(0.5, 2.0)
        cand = BudgetDecision((x1, 1.0 - x1), t)
        v = valuation(mean, cand, inst) + bias_value(bias, cand, inst)
        assert v <= best + 1e-9


def test_strong_bias_reaches_target():
    inst = make_running_instance()
    mean = mean_type(RUNNING_PROFILE)
    d = optimize_biased(mean, BiasSpec(lam=1e6, target=ConstantTarget((0.25, 0.75))), inst)
    assert np.allclose(d.allocation, [0.25, 0.75], atol=1e-3)


def test_table_target_interpolates():
    target = TableTarget((0.0, 100.0), ((0.2, 0.8), (0.6, 0.4)))
    inst = make_running_instance()
    x = target.allocation_at(50.0, inst)
    assert np.allclose(x, [0.4, 0.6], atol=1e-12)


def test_tax_preference_must_vanish():
    with pytest.raises(DomainError):
        TaxPreference("exp_decay", amplitude=5.0, decay_scale=1e12)
    psi = TaxPreference.exp_decay(5.0, 100.0)
    assert psi.value(0.0) == pytest.approx(5.0)
    assert abs(psi.value(1e9)) < 1e-6


@pytest.mark.parametrize(
    "amplitude, decay_scale", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
)
def test_tax_preference_refuses_non_finite_parameters(amplitude, decay_scale):
    # a nan amplitude or decay scale used to be accepted, and run_bus_vcg
    # on the running example then paid nan to every agent
    with pytest.raises(DomainError, match="finite amplitude and decay scale"):
        TaxPreference.exp_decay(amplitude, decay_scale)


@pytest.mark.parametrize(
    "entries",
    [
        ((math.nan, 1.0),),
        ((math.nan,), ((0.5, 0.5),)),
        ((0.0, math.inf), ((0.5, 0.5), (0.5, 0.5))),
        ((0.0, 1.0), ((0.5, 0.5), (math.nan, 1.0))),
        ((0.0, 1.0), ((0.5, 0.5), (0.2, 0.3, 0.5))),
    ],
    ids=["constant-nan", "nan-tax", "inf-tax", "nan-row", "ragged-rows"],
)
def test_targets_refuse_non_finite_entries_and_ragged_rows(entries):
    # a nan entry passed both the sum and the sign check, and a nan tax the
    # increasing-taxes check, after which a biased run divided by zero
    with pytest.raises(DomainError):
        (ConstantTarget if len(entries) == 1 else TableTarget)(*entries)


@pytest.mark.parametrize(
    "target",
    [ConstantTarget((0.2, 0.3, 0.5)), TableTarget((0.0, 9.0), ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)))],
    ids=["constant", "table"],
)
def test_biased_solves_refuse_a_length_mismatch(target):
    # zip used to cut a 3-entry target, or type, to the running example's
    # 2 goods, and the solve or the run returned a decision; a null bias
    # (lam = 0, no psi) solves the plain kind but still refuses the target
    inst = make_running_instance()
    mean = mean_type(RUNNING_PROFILE)
    for lam in (0.5, 0.0):
        with pytest.raises(DomainError, match="one per good"):
            run_bus_vcg(RUNNING_PROFILE, BiasSpec(lam, target), inst)
        with pytest.raises(DomainError, match="one per good"):
            optimize_biased(mean, BiasSpec(lam, target), inst)
    with pytest.raises(DomainError, match="type length"):
        optimize_biased(AgentType((0.2, 0.3, 0.5), 1.0), BiasSpec(0.5, EquitableTarget()), inst)


# =============================================================================
# Equitable allocation
# =============================================================================


def test_equitable_identical_curves_uniform():
    inst = make_running_instance()
    assert np.allclose(equitable_allocation(10.0, inst), [0.5, 0.5], atol=1e-12)


def test_equitable_two_scales_closed_form():
    # 10*ln(x1*B) = 20*ln(x2*B) at B=100: with s = exp(level/20),
    # s^2 + s = 100, so x1 = s^2/100
    inst = dataclasses.replace(
        make_running_instance(), gain_curves=(GainCurve.log(10.0), GainCurve.log(20.0))
    )
    x = equitable_allocation(100.0 / 3.0, inst)  # pool = 3t = 100
    s = (-1.0 + math.sqrt(401.0)) / 2.0
    assert x[0] == pytest.approx(s * s / 100.0, rel=1e-9)
    assert x[1] == pytest.approx(s / 100.0, rel=1e-9)


def _pairwise_gap(x, curves, pool):
    vals = [c.value(xi * pool) if xi > 0 or not c.strict_domain else -math.inf
            for xi, c in zip(x, curves)]
    return max(vals) - min(vals)


@pytest.mark.parametrize(
    "curves",
    [
        (GainCurve.log(10.0), GainCurve.log(20.0)),
        (GainCurve.power(1.0, 0.5), GainCurve.power(3.0, 0.3)),
        (GainCurve.log(5.0), GainCurve.power(2.0, 0.4)),
        (GainCurve.log1p(3.0), GainCurve.power(1.0, 0.6)),
    ],
)
def test_equitable_matches_grid_minimax(curves):
    inst = dataclasses.replace(make_running_instance(), gain_curves=curves)
    pool = 90.0
    x = equitable_allocation(pool / 3.0, inst)
    gap = _pairwise_gap(x, curves, pool)
    xs = np.linspace(1e-6, 1 - 1e-6, 100_000)
    a = curves[0].value_array(xs * pool)
    b = curves[1].value_array((1 - xs) * pool)
    grid_gap = float(np.min(np.abs(a - b)))
    assert gap <= grid_gap + 1e-3


def test_equitable_fallback_small_pool():
    # pool too small for the power curve to join the common level: the log
    # curve absorbs everything
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.power(1.0, 0.5)),
    )
    pool = 0.5
    x = equitable_allocation(pool / 3.0, inst)
    gap = _pairwise_gap(x, inst.gain_curves, pool)
    xs = np.linspace(0.0, 1 - 1e-9, 200_000)
    a = inst.gain_curves[0].value_array(np.maximum(xs, 1e-300) * pool)
    b = inst.gain_curves[1].value_array((1 - xs) * pool)
    grid_gap = float(np.min(np.maximum(a, b) - np.minimum(a, b)))
    assert gap <= grid_gap + 1e-3


def test_equitable_maximises_minimum():
    rng = np.random.default_rng(29)
    curves = (GainCurve.log(10.0), GainCurve.power(2.0, 0.45), GainCurve.log(4.0))
    inst = BudgetInstance(
        m=3,
        n=3,
        external_budget=0.0,
        gain_curves=curves,
        money_curve=MoneyCurve.power(0.5),
    )
    pool = 120.0
    x = equitable_allocation(pool / 3.0, inst)
    floor = min(c.value(xi * pool) for xi, c in zip(x, curves))
    for _ in range(1000):
        cand = rng.dirichlet(np.ones(3))
        vals = [
            c.value(ci * pool) if ci > 0 else c.value_limit_at_zero()
            for ci, c in zip(cand, curves)
        ]
        assert min(vals) <= floor + 1e-9


def test_equitable_needs_positive_pool():
    inst = make_running_instance()
    with pytest.raises(DomainError):
        equitable_allocation(-10.0, inst)


_EQUITABLE_CATALOGS = [
    (GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
    (GainCurve.log(5.0), GainCurve.power(2.0, 0.45), GainCurve.log(4.0)),
    (GainCurve.power(1.0, 0.5), GainCurve.log1p(3.0), GainCurve.power(3.0, 0.3)),
]
_EQUITABLE_POOLS = (1e-3, 0.5, 3.0, 90.0, 1e4, 1e7)


def _equitable_instance(curves):
    # n = 1 under nominal semantics: the pool is the tax
    return BudgetInstance(
        m=len(curves),
        n=1,
        external_budget=0.0,
        gain_curves=tuple(curves),
        money_curve=MoneyCurve.power(0.5),
    )


def _equitable_on(curves, pool):
    return equitable_allocation(pool, _equitable_instance(curves))


def _bisected_level(curves, pool, lo, hi):
    """Reference: the goods' spends at their common level, by bisection of
    sum_j theta_j^{-1}(c) = pool on [lo, hi], normalised to shares."""
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if math.fsum(c.inverse(mid) for c in curves) > pool:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    spends = np.array([c.inverse(0.5 * (lo + hi)) for c in curves])
    return spends / spends.sum()


@pytest.mark.parametrize("curves", _EQUITABLE_CATALOGS)
def test_equitable_funded_levels_are_equal(curves):
    for pool in _EQUITABLE_POOLS:
        x = _equitable_on(curves, pool)
        levels = [c.value(xj * pool) for xj, c in zip(x, curves) if xj > 0.0]
        assert len(levels) >= 1
        scale = max(abs(v) for v in levels)
        assert max(levels) - min(levels) <= 1e-12 * scale


def test_equitable_floored_root_at_level_zero():
    # both log goods reach level 0 at spend 1, so at pool 2 the common
    # level is exactly 0 and the power good gets nothing
    curves = (GainCurve.log(2.0), GainCurve.log(5.0), GainCurve.power(1.0, 0.5))
    x = _equitable_on(curves, 2.0)
    reference = _bisected_level(curves, 2.0, 0.0, min(c.value(2.0) for c in curves))
    assert np.allclose(x, reference, rtol=0.0, atol=1e-12)
    assert np.allclose(x, [0.5, 0.5, 0.0], rtol=0.0, atol=1e-12)


def test_equitable_deep_branch_matches_bisection():
    # at pool 0.5 the two log goods need more than the pool at level 0, so
    # they share it at a common negative level and the log1p good sits at 0
    curves = (GainCurve.log(10.0), GainCurve.log(3.0), GainCurve.log1p(2.0))
    x = _equitable_on(curves, 0.5)
    deep = curves[:2]
    reference = _bisected_level(deep, 0.5, -1e3, min(c.value(0.5) for c in deep))
    assert x[2] == 0.0
    assert np.allclose(x[:2], reference, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("curves", _EQUITABLE_CATALOGS + [(GainCurve.log(10.0), GainCurve.log(20.0))])
def test_equitable_inverse_calls_per_allocation(monkeypatch, curves):
    # the floored check calls each curve's inverse at level 0 once, and each
    # sweep of the equalising level evaluates each good's inverse once,
    # inline; the level reports its sweeps
    calls = _count_calls(monkeypatch, "inverse")
    for pool in _EQUITABLE_POOLS:
        calls.clear()
        sweeps = solver._equalised(pool, _equitable_instance(curves))[3]
        assert len(calls) + sweeps * len(curves) <= 12 * len(curves)


def test_equalising_level_sweeps():
    # Newton descends from the lowest full-pool level; the level reports its
    # sweeps.  On 5,000 seeded catalogs of 2-4 log/power/log1p goods (scales
    # 0.1-50, power exponents 0.1-0.9) at pools from 1e-6 to 1e6 it takes
    # 3.95 sweeps in the mean and 8 at most.  Scales far apart take more:
    # log goods of scale 0.1 against log goods of scale 36 at a pool of 2
    # take 13, the most a search over such catalogs found
    rng = np.random.default_rng(4242)
    sweeps = []
    for _ in range(5000):
        curves = []
        for kind in rng.integers(0, 3, int(rng.integers(2, 5))):
            scale = float(rng.uniform(0.1, 50.0))
            curves.append(
                GainCurve.log(scale) if kind == 0
                else GainCurve.power(scale, float(rng.uniform(0.1, 0.9))) if kind == 1
                else GainCurve.log1p(scale)
            )
        pool = float(10.0 ** rng.uniform(-6.0, 6.0))
        sweeps.append(solver._equalised(pool, _equitable_instance(curves))[3])
    assert max(sweeps) <= 8 and sum(sweeps) <= 4.0 * len(sweeps)
    extreme = (GainCurve.log(0.1),) * 2 + (GainCurve.log(35.8572465634989),) * 2
    assert solver._equalised(1.9695590188284633, _equitable_instance(extreme))[3] == 13


def _exact_equitable(curves, pool, mp):
    """The equitable shares at 50 digits: the common level c of
    sum_j theta_j^{-1}(c) = pool by bisection, over every good when the
    curves bounded below (level 0 at zero spend) leave room for it at
    c >= 0, else over the log goods alone at a negative level."""
    def inverse(curve, c):
        a = mp.mpf(curve.scale)
        if curve.kind == "log":
            return mp.exp(c / a)
        if curve.kind == "power":
            return (c / a) ** (1 / mp.mpf(curve.exponent))
        return mp.expm1(c / a)

    pool = mp.mpf(pool)
    floored = [c.kind != "log" for c in curves]
    funded = [True] * len(curves)
    lo = mp.mpf(0) if any(floored) else mp.mpf(-1e4)
    if any(floored) and mp.fsum(inverse(c, lo) for c in curves) > pool:
        funded, lo = [not f for f in floored], mp.mpf(-1e4)
    hi = mp.mpf(1e4)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.fsum(inverse(c, mid) for c, f in zip(curves, funded) if f) > pool:
            hi = mid
        else:
            lo = mid
    spends = [inverse(c, lo) if f else mp.mpf(0) for c, f in zip(curves, funded)]
    return [s / mp.fsum(spends) for s in spends], funded


def test_equitable_matches_a_50_digit_level():
    # the floored branch (a common level >= 0 for every good) and the
    # log-only branch (the log goods at a negative level, the rest at 0),
    # each met by a catalog and pool below; shares within 1e-13 + 1e-15/pool
    mp = pytest.importorskip("mpmath")
    catalogs = _EQUITABLE_CATALOGS + [
        (GainCurve.log(10.0), GainCurve.log(3.0), GainCurve.log1p(2.0)),
        (GainCurve.log(2.0), GainCurve.log(5.0), GainCurve.power(1.0, 0.5)),
    ]
    branches = set()
    with mp.workdps(50):
        for curves in catalogs:
            for pool in (*_EQUITABLE_POOLS, 0.5, 2.0, 2.5):
                x = _equitable_on(curves, pool)
                shares, funded = _exact_equitable(curves, pool, mp)
                if any(c.kind != "log" for c in curves):
                    branches.add("floored" if all(funded) else "log-only")
                for xj, ref in zip(x.tolist(), shares):
                    assert abs(mp.mpf(xj) - ref) <= 1e-13 + 1e-15 / pool, (curves, pool)
    assert branches == {"floored", "log-only"}


# =============================================================================
# Corresponding (phantom) types
# =============================================================================


def test_corresponding_type_log_curves():
    inst = make_running_instance()
    ahat = corresponding_type((0.25, 0.75), 50.0, inst)
    assert np.allclose(ahat, [0.25, 0.75], atol=1e-12)


def test_corresponding_type_roundtrip_mixed():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.power(1.0, 0.5)),
    )
    t = 100.0 / 3.0
    ahat = corresponding_type((0.3, 0.7), t, inst)
    back = inner_allocation(AgentType(tuple(ahat), 1.0), inst.pool(t), inst)
    assert np.allclose(back, [0.3, 0.7], atol=1e-6)


def test_boundary_target_rejected():
    from usvcg import BoundaryTarget

    inst = make_running_instance()
    with pytest.raises(BoundaryTarget):
        corresponding_type((0.0, 1.0), 50.0, inst)


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


def test_hetero_uniform_weights_reduce_to_plain():
    inst = make_running_instance()
    d_plain = optimize(mean_type(RUNNING_PROFILE), inst)
    d_het = optimize_hetero(RUNNING_PROFILE, inst)
    assert d_het.tax == pytest.approx(d_plain.tax, rel=1e-6)
    assert np.allclose(d_het.allocation, d_plain.allocation, atol=1e-9)


def test_hetero_power_money_absorbs_weights():
    inst = dataclasses.replace(make_running_instance(), tax_weights=(2.0, 0.5, 0.5))
    absorbed = tuple(
        AgentType(a.alloc_weights, a.money_weight * math.sqrt(w))
        for a, w in zip(RUNNING_PROFILE, (2.0, 0.5, 0.5))
    )
    d_het = optimize_hetero(RUNNING_PROFILE, inst)
    d_abs = optimize(mean_type(absorbed), make_running_instance())
    assert d_het.tax == pytest.approx(d_abs.tax, rel=1e-9)


def test_hetero_matches_grid_oracle():
    inst = dataclasses.replace(
        make_running_instance(),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        tax_weights=(2.0, 0.5, 0.5),
    )
    d = optimize_hetero(RUNNING_PROFILE, inst)
    w_solver = social_welfare(RUNNING_PROFILE, d, inst)
    res = grid_oracle(RUNNING_PROFILE, inst, 400, (1e-6, 4.0 * d.tax))
    assert w_solver >= res.value - 1e-9
    assert abs(w_solver - res.value) <= 1e-4 * abs(res.value)


def test_hetero_negative_tax_matches_grid_oracle():
    # an external budget large enough that the optimum hands money back:
    # the solve runs on the kt curve's t < 0 side, and the oracle scans
    # both sides of zero
    inst = dataclasses.replace(
        make_running_instance(),
        external_budget=300.0,
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        tax_weights=(2.0, 0.5, 0.5),
    )
    d = optimize_hetero(RUNNING_PROFILE, inst)
    assert d.tax < 0.0
    w_solver = social_welfare(RUNNING_PROFILE, d, inst)
    res = grid_oracle(RUNNING_PROFILE, inst, 400, (inst.tax_floor, 2.0 * abs(d.tax)))
    assert w_solver >= res.value - 1e-9
    assert abs(w_solver - res.value) <= 1e-4 * abs(res.value)


@pytest.mark.parametrize(
    "money, taxes",
    [
        (MoneyCurve.power(0.5), (0.0, 0.37, 415.0)),
        (MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5), (-52.0, -0.8, 0.0, 0.37, 415.0)),
    ],
)
def test_hetero_money_term_matches_per_agent_sum(money, taxes):
    # sum_k w_k f(omega_k t) and its slope, summed agent by agent, against
    # the profile totals' coefficient on t's side of zero times f(t) or f'(t)
    rng = np.random.default_rng(71)
    n = 40
    money_weights, omegas = rng.uniform(0.5, 2.0, n), rng.uniform(0.3, 2.5, n)
    profile = tuple(AgentType((1.0,), float(w)) for w in money_weights)
    inst = BudgetInstance(
        m=1,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.log(1.0),),
        money_curve=money,
        tax_weights=tuple(omegas * (n / omegas.sum())),
    )
    terms = [(a.money_weight, omega) for a, omega in zip(profile, inst.tax_weights)]
    totals = solver._HeteroTotals(profile, inst)
    _, (below, above) = totals.without(None)
    for t in taxes:
        coefficient = above if t > 0.0 else below
        value = math.fsum(w * money.value(omega * t) for w, omega in terms)
        slope = math.fsum(w * omega * money.deriv(omega * t) for w, omega in terms)
        if t == 0.0:
            assert coefficient * money.value(t) == value == 0.0
            assert coefficient * money.deriv(t) == slope == math.inf
            continue
        assert coefficient * money.value(t) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert coefficient * money.deriv(t) == pytest.approx(slope, rel=1e-12, abs=0.0)
    # without one agent: the correctly rounded sum over the others
    for i in (0, 17, n - 1):
        _, coefficients = totals.without(i)
        others = [term for k, term in enumerate(terms) if k != i]
        assert coefficients == tuple(
            math.fsum(w * omega ** money.exponent(side) for w, omega in others)
            for side in (-1.0, 1.0)
        )


@pytest.mark.parametrize("domain_min", [0.0, -math.inf])
def test_hetero_exclusion_matches_a_fresh_sum_over_the_others(domain_min):
    # removing agent i from the profile's exact totals gives the weights
    # and money coefficients of a fresh pass over the others, so each solve
    # is the one those decide, bit for bit; the money curve's domain
    # follows from its kind, and no tax weight moves it
    profile, _, inst = variants_catalog(40)
    money = MoneyCurve.power(0.5) if domain_min == 0.0 else MoneyCurve("kt", 0.5, 0.6, 2.0)
    assert money.domain_min == domain_min
    inst = dataclasses.replace(inst, money_curve=money)
    omegas = inst.tax_weights
    smallest = min(range(40), key=omegas.__getitem__)
    for exclude in (None, 0, 7, 39, smallest):
        included = [k for k in range(40) if k != exclude]
        weights = [math.fsum(profile[k].alloc_weights[j] for k in included) for j in range(3)]
        coefficients = tuple(
            math.fsum(profile[k].money_weight * omegas[k] ** money.exponent(side) for k in included)
            for side in (-1.0, 1.0)
        )
        objective = solver._PlainObjective(weights, inst.money_factor(), coefficients, inst)
        fresh = solver._solve(objective)
        assert optimize_hetero(profile, inst, exclude=exclude) == fresh


@pytest.mark.parametrize("exclude", [8, -1])
def test_hetero_exclude_outside_the_profile_is_refused(exclude):
    # -1 would drop the last agent, 8 nobody; neither names an agent
    profile, _, inst = variants_catalog(8)
    with pytest.raises(DomainError, match="out of range"):
        optimize_hetero(profile, inst, exclude=exclude)


def test_hetero_money_calls_do_not_grow_with_n(monkeypatch):
    # n copies of one type with tax weights alternating 0.5 and 1.5: at
    # n = 64 the objective is exactly 8 times the one at n = 8, so both
    # solves take the same search path, and the money curve must be called
    # as often in one as in the other
    calls = []
    for name in ("value", "deriv"):
        original = getattr(MoneyCurve, name)

        def counted(self, delta, _original=original):
            calls.append(1)
            return _original(self, delta)

        monkeypatch.setattr(MoneyCurve, name, counted)
    agent = AgentType((0.5, 0.3, 0.2), 1.1)
    taxes, counts = [], []
    for n in (8, 64):
        inst = BudgetInstance(
            m=3,
            n=n,
            external_budget=0.0,
            gain_curves=(GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
            money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
            semantics="per_capita",
            tax_weights=(0.5, 1.5) * (n // 2),
        )
        calls.clear()
        taxes.append(optimize_hetero((agent,) * n, inst).tax)
        counts.append(len(calls))
    assert taxes[0] == taxes[1]
    assert counts[0] == counts[1]


# =============================================================================
# Grid oracle
# =============================================================================


def test_oracle_rejects_coarse_grids():
    inst = make_running_instance()
    with pytest.raises(ResolutionTooCoarse):
        grid_oracle(RUNNING_PROFILE[0], inst, 5, (1.0, 100.0))


def test_oracle_single_good():
    inst = BudgetInstance(
        m=1,
        n=2,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0),),
        money_curve=MoneyCurve.power(0.5),
    )
    res = grid_oracle(AgentType((1.0,), 1.0), inst, 200, (1.0, 1000.0))
    assert res.decision.allocation == (1.0,)
    assert res.decision.tax == pytest.approx(400.0, rel=0.05)


def test_first_voter_optimum_confirmed_by_dense_oracle():
    # the voter's own optimum ((0.7, 0.3), 625) should win a 400x400 scan
    inst = make_running_instance()
    agent = RUNNING_PROFILE[0]
    res = grid_oracle(agent, inst, 400, (1.0, 1500.0))
    assert abs(res.decision.tax - 625.0) <= 1500.0 / 400
    assert abs(res.decision.allocation[0] - 0.7) <= 1.0 / 400
    d = optimize(agent, inst)
    assert valuation(agent, d, inst) >= res.value - 1e-9


def test_solver_never_beaten_by_oracle():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        inst = random_instance(rng, m=m, n=3)
        agent = random_profile(rng, 1, m)[0]
        d = optimize(agent, inst)
        res = grid_oracle(
            agent, inst, 150, (inst.tax_floor + 1e-6, 4.0 * abs(d.tax) + 1.0)
        )
        v_solver = valuation(agent, d, inst)
        assert v_solver >= res.value - 1e-9
        assert abs(v_solver - res.value) <= 1e-3 * max(1.0, abs(res.value))


# =============================================================================
# Outer tax search: kinks, probe counts, the biased slope
# =============================================================================


def _kt_fuzz_catalog(rng):
    # fuzz_cold's water-fill kt catalog, but with an external budget, so
    # negative taxes are feasible and the tax axis can have a mode on each
    # side of the kt curve's kink at t = 0
    return BudgetInstance(
        m=3,
        n=3,
        external_budget=float(rng.uniform(5.0, 60.0)),
        gain_curves=(
            GainCurve.log(float(rng.uniform(5.0, 15.0))),
            GainCurve.power(float(rng.uniform(2.0, 8.0)), float(rng.uniform(0.3, 0.45))),
            GainCurve.log1p(float(rng.uniform(2.0, 6.0))),
        ),
        money_curve=MoneyCurve.kahneman_tversky(
            float(rng.uniform(0.6, 0.9)), float(rng.uniform(0.65, 0.9)), float(rng.uniform(1.5, 2.5))
        ),
    )


_FUZZ_KINDS = ["all-log", "water-fill", "kt-b0"]


def _fuzz_instance(rng, kind):
    # all-log catalogs (closed-form inner stage), log/power/log1p catalogs
    # with a power or kt money curve (B0 = 0 or 20 for kt), and fuzz_cold's
    # kt water-fill catalog with B0 in (5, 60); n = 3
    if kind == "kt-b0":
        return _kt_fuzz_catalog(rng)
    m = int(rng.integers(2, 4))
    instance = random_instance(rng, m, 3, diverging_only=False, with_types=False)
    if kind == "all-log":
        logs = tuple(GainCurve.log(float(s)) for s in rng.uniform(2.0, 15.0, m))
        instance = dataclasses.replace(instance, gain_curves=logs)
    return instance


def test_kt_external_budget_fuzz_finds_the_global_mode():
    # the reproducer of bench/kt_defect.py, then single-trial allocation
    # fuzzes on freshly drawn catalogs (two of these 60 draws failed when
    # the search refined the wrong side of t = 0)
    defect = BudgetInstance(
        m=3,
        n=3,
        external_budget=41.07297040776804,
        gain_curves=(
            GainCurve.log(7.574585875458979),
            GainCurve.power(7.275715754986248, 0.4448090106856578),
            GainCurve.log1p(3.5494111616411894),
        ),
        money_curve=MoneyCurve.kahneman_tversky(
            0.6728789946505016, 0.7113661941218359, 2.133001340521651
        ),
    )
    runs = [(defect, 1932293069)]
    rng = np.random.default_rng(11)
    for _ in range(60):
        instance = _kt_fuzz_catalog(rng)
        runs.append((instance, int(rng.integers(2**31))))
    for instance, trial in runs:
        report = sdsic_fuzz(instance, 1, trial, misreport_space="allocation")
        assert report.passed, (instance, trial, report.max_gain)


def test_kt_negative_tax_optima_match_grid_oracle():
    rng = np.random.default_rng(11)
    for agent in (AgentType((0.5, 0.3, 0.2), 1.0), AgentType((0.2, 0.3, 0.5), 1.4)):
        instance = _kt_fuzz_catalog(rng)
        d = optimize(agent, instance)
        assert d.tax < 0.0
        v_solver = valuation(agent, d, instance)
        res = grid_oracle(agent, instance, 200, (instance.tax_floor, 2.0 * abs(d.tax) + 1.0))
        assert v_solver >= res.value - 1e-9
        assert abs(v_solver - res.value) <= 1e-4 * abs(res.value)


def test_criterion_07_instance_1_takes_the_mode_after_the_dip():
    # criterion 7's second draw: B0 = 20 and a kt curve, so the value falls
    # from t = 0+ (slope -inf) for about 0.06 in tax and then rises to a mode
    # near 6.8; a bracket that stopped on the falling samples right after
    # the kink would return t ~ 0 (value 24.55 against 25.32)
    rng = np.random.default_rng(1007)
    for k in range(2):
        m = 1 + k % 3
        instance = random_instance(rng, m=m, n=3)
        agent = random_profile(rng, 1, m)[0]
    d = optimize(agent, instance)
    assert 6.0 < d.tax < 8.0
    v_solver = valuation(agent, d, instance)
    res = grid_oracle(agent, instance, 500, (instance.tax_floor + 1e-6, 4.0 * abs(d.tax) + 1.0))
    assert v_solver >= res.value - 1e-9


def test_uniqueness_check_raises_at_a_branch_switch(kt_branch_switch):
    # at the switch the two branches' maxima tie to within rounding: the
    # search finds both, the funding branch (t = 126.60) and the cash-back
    # branch (t = -4.31), 1e-12 apart in value relative
    profile = (AgentType((0.5, 0.5), kt_branch_switch),) * 4
    instance = make_kt_branch_instance(profile)
    with pytest.raises(NonUniqueOptimum):
        solver._require_unique_optimum(mean_type(profile), instance)
    away = AgentType((0.5, 0.5), 0.6)
    assert solver._require_unique_optimum(away, instance) == optimize(away, instance)


def test_uniqueness_check_runs_one_tax_search(monkeypatch, kt_branch_switch):
    # the runner-up comes from the search's own candidates, with no second
    # search, whether the check passes or raises
    profile = (AgentType((0.5, 0.5), kt_branch_switch),) * 4
    instance = make_kt_branch_instance(profile)
    solves = _record_solves(monkeypatch)
    with pytest.raises(NonUniqueOptimum):
        solver._require_unique_optimum(mean_type(profile), instance)
    assert [solve.bounds for solve in solves] == [[False]]
    solver._require_unique_optimum(AgentType((0.5, 0.5), 0.6), instance)
    assert [solve.bounds for solve in solves] == [[False]] * 2


def test_uniqueness_check_passes_near_a_branch_switch():
    # at w = 0.6543 the search still finds both branches' maxima, but they
    # differ by 5e-5 in value relative: no tie, and the check returns
    # optimize's decision
    profile = (AgentType((0.5, 0.5), 0.6543),) * 4
    instance = make_kt_branch_instance(profile)
    agent = mean_type(profile)
    assert solver._require_unique_optimum(agent, instance) == optimize(agent, instance)


def _record_solves(patch):
    """Record each solve from here on: its walks' ``bounds`` (True for a
    walk that took a descent bound; a pivot solve certified against its
    run's record walks only where its brackets moved), the walks'
    ``probes`` and the ``taxes`` of its slope probes: each probe evaluates
    the money curve's f' once, and nothing else in a solve does."""
    solves, open_solves = [], []
    solve, walk, deriv = solver._solve, solver._walk, MoneyCurve.deriv

    def solving(*args, **kwargs):
        solves.append(SimpleNamespace(bounds=[], probes=[], taxes=[]))
        open_solves.append(solves[-1])
        try:
            return solve(*args, **kwargs)
        finally:
            open_solves.pop()

    def walking(probe, instance, descent=None):
        if open_solves:
            open_solves[-1].bounds.append(descent is not None)
            open_solves[-1].probes.append(probe)
        return walk(probe, instance, descent)

    def counted(curve, t):
        if open_solves:
            open_solves[-1].taxes.append(t)
        return deriv(curve, t)

    patch.setattr(solver, "_solve", solving)
    patch.setattr(solver, "_walk", walking)
    patch.setattr(MoneyCurve, "deriv", counted)
    return solves


def test_probes_per_solve(monkeypatch):
    # a cold solve on the all-log running example (B0 = 0) skips to the
    # walk's one bracket by the bound on its ordinate's descent, in at
    # most 4 slope probes: the start, the bracket's two ends and the
    # secant's root.  The biased solves and those of the mixed catalog
    # (a log1p good) walk, in at most 60
    solves = _record_solves(monkeypatch)
    bias = BiasSpec(0.5, EquitableTarget())
    running = make_running_instance()
    types, plain, hetero = variants_catalog()
    cases = [(RUNNING_PROFILE, running, running), (types, plain, hetero)]
    for profile, instance, weighted in cases:
        mean = mean_type(profile)
        for agent in (mean, profile[0]):
            optimize(agent, instance)
            optimize_biased(agent, bias, instance)
        optimize_hetero(profile, weighted)
    walked = [solve.taxes for solve in solves if solve.bounds == [False]]
    located = [solve.taxes for solve in solves if solve.bounds == [True]]
    assert len(solves) == 10 and len(walked) == 7 and len(located) == 3
    assert max(map(len, located)) <= 4
    assert max(map(len, walked)) <= 60


def _outcome(solve):
    """A solve's decision, or the type and message of what it raised."""
    try:
        return solve()
    except UsvcgError as error:
        return type(error), str(error)


def _cold_and_walked(agent, profile, instance, exclude=None):
    """The outcomes of a plain and a hetero solve, each cold and with a
    fresh run (whose first solve walks): two pairs that must be equal."""
    hetero = solver._HeteroTotals(profile, instance)
    return [
        (
            _outcome(lambda: optimize(agent, instance)),
            _outcome(lambda: optimize(agent, instance, run=solver._Run(instance))),
        ),
        (
            _outcome(lambda: optimize_hetero(profile, instance, exclude)),
            _outcome(
                lambda: optimize_hetero(
                    profile, instance, exclude, run=solver._Run(instance, hetero)
                )
            ),
        ),
    ]


_LOCATED_GOODS = st.one_of(
    st.builds(GainCurve.log, st.floats(1.0, 15.0)),
    st.builds(GainCurve.power, st.floats(1.0, 15.0), st.floats(0.05, 0.6)),
)
_LOCATED_MONEY = st.one_of(
    st.builds(MoneyCurve.power, st.floats(0.35, 0.9)),
    st.builds(
        MoneyCurve.kahneman_tversky, st.floats(0.3, 0.95), st.floats(0.35, 0.9), st.floats(0.5, 2.5)
    ),
)


@given(
    curves=st.lists(_LOCATED_GOODS, min_size=1, max_size=3),
    money=_LOCATED_MONEY,
    n=st.integers(1, 4),
    semantics=st.sampled_from(["nominal", "per_capita"]),
    weighted=st.booleans(),
    zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_located_cold_solves_equal_the_walk(curves, money, n, semantics, weighted, zero, seed):
    # log and power catalogs at B0 = 0, some with a zero weight or a single
    # good, under a power or kt money curve and either semantics, and hetero
    # solves under drawn tax weights: a cold solve, which skips by the bound
    # where it holds (a power exponent below the money exponent), gives the
    # walk's decision bit for bit, or raises the walk's exception with its
    # message, and makes no more slope probes than the walk
    rng = np.random.default_rng(seed)
    m = len(curves)
    raw = rng.uniform(0.5, 1.5, n)
    instance = BudgetInstance(
        m=m,
        n=n,
        external_budget=0.0,
        gain_curves=tuple(curves),
        money_curve=money,
        semantics=semantics,
        tax_weights=tuple(raw * (n / raw.sum())) if weighted else None,
    )
    profile = random_profile(rng, n, m)
    agent = profile[0]
    if zero and m > 1:
        alloc = list(agent.alloc_weights)
        alloc[int(rng.integers(m))] = 0.0
        agent = AgentType.normalized(alloc, agent.money_weight)
    exclude = int(rng.integers(n)) if n > 1 and rng.random() < 0.5 else None
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_solves(patch)
        pairs = _cold_and_walked(agent, profile, instance, exclude)
    assert len(solves) == 4
    for (cold, walked), cold_solve, walked_solve in zip(pairs, solves[::2], solves[1::2]):
        assert cold == walked
        assert len(cold_solve.taxes) <= len(walked_solve.taxes)


@given(
    scales=st.lists(st.floats(5.0, 15.0), min_size=2, max_size=2),
    q=st.floats(0.4, 0.7),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_all_log_cold_solves_take_at_most_4_probes(scales, q, seed):
    # the all-log catalogs of the fuzz_cold benchmark (n = 3, two log goods
    # of scale 5-15, a power money curve of exponent 0.4-0.7, B0 = 0), under
    # a seeded misreport fuzz: the bound puts the walk's bracket one rung
    # past the last sample it proves positive, so every solve is cold, skips
    # by the bound and makes at most 4 slope probes: the start, the
    # bracket's two ends and the secant's root
    instance = BudgetInstance(
        m=2,
        n=3,
        external_budget=0.0,
        gain_curves=tuple(GainCurve.log(scale) for scale in scales),
        money_curve=MoneyCurve.power(q),
    )
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_solves(patch)
        sdsic_fuzz(instance, 2, seed, misreport_space="allocation")
    assert solves and all(solve.bounds == [True] for solve in solves)
    assert max(len(solve.taxes) for solve in solves) <= 4


def _log_instance(**changes):
    return dataclasses.replace(
        BudgetInstance(
            m=2,
            n=3,
            external_budget=0.0,
            gain_curves=(GainCurve.log(10.0), GainCurve.power(4.0, 0.3)),
            money_curve=MoneyCurve.power(0.5),
            semantics="per_capita",
        ),
        **changes,
    )


def test_located_solves_planted(monkeypatch):
    # a start whose slope is <= 0 is the decision; a slope still positive
    # at the tax cap raises the walk's TaxDivergence, with its message; the
    # running example locates its bracket.  Each equals the walk's outcome
    solves = _record_solves(monkeypatch)
    divergent = BudgetInstance(  # test_tax_divergence's: t* of order 1e45
        m=1,
        n=100_000,
        external_budget=0.0,
        gain_curves=(GainCurve.power(1.0, 0.45),),
        money_curve=MoneyCurve.power(0.5),
    )
    cases = [
        (AgentType((0.5, 0.5), 1e7), _log_instance()),
        (AgentType((1.0,), 1.0), divergent),
        (mean_type(RUNNING_PROFILE), make_running_instance()),
    ]
    outcomes = []
    for agent, instance in cases:
        [(cold, walked), _] = _cold_and_walked(agent, (agent,) * instance.n, instance)
        assert cold == walked
        outcomes.append(cold)
    start = solver._feasible_start(cases[0][1])
    assert outcomes[0].tax == start
    assert outcomes[1][0] is TaxDivergence
    assert outcomes[2].tax > start
    # each case makes one located plain and one located hetero solve, and
    # the runs' solves walk: the start alone; the start and the last sample
    # within the cap; the start, the bracket's ends and the secant's root
    located = [len(solve.taxes) for solve in solves if solve.bounds == [True]]
    assert located == [1, 1, 2, 2, 4, 4]
    assert [solve.bounds for solve in solves].count([False]) == 6


def test_a_failed_descent_bound_starts_the_walk_over(monkeypatch):
    # on the running example the true rate skips to the bracket, and a rate
    # far below it proves samples positive past the bracket: the first one
    # after the skip is not, and the walk starts over without the bound,
    # with the full walk's samples
    solves = _record_solves(monkeypatch)
    agent, instance = mean_type(RUNNING_PROFILE), make_running_instance()
    optimize(agent, instance)
    [(probe,)] = [solve.probes for solve in solves]
    full = solver._walk(probe, instance)
    skipped = solver._walk(probe, instance, solver._PlainObjective.of(agent, instance).descent())
    assert len(skipped) == 3 and _brackets(skipped) == _brackets(full)
    assert solver._walk(probe, instance, 1e-3) == full


@pytest.mark.parametrize(
    "instance",
    [
        # a power exponent that reaches the money curve's (0.5): r need not fall
        _log_instance(gain_curves=(GainCurve.log(10.0), GainCurve.power(4.0, 0.5))),
        _log_instance(gain_curves=(GainCurve.log(10.0), GainCurve.power(4.0, 0.6))),
        # a log1p good, whose spend law is offset (d = 1)
        _log_instance(gain_curves=(GainCurve.log(10.0), GainCurve.log1p(4.0))),
        # B0 > 0: the pool's elasticity in t falls below 1
        _log_instance(external_budget=6.0),
        _log_instance(external_budget=6.0, money_curve=MoneyCurve.kahneman_tversky(0.6, 0.8, 1.5)),
    ],
)
def test_catalogs_without_a_bound_walk(monkeypatch, instance):
    solves = _record_solves(monkeypatch)
    agent = AgentType((0.5, 0.5), 1.0)
    assert solver._PlainObjective.of(agent, instance).descent() is None
    for cold, walked in _cold_and_walked(agent, (agent,) * instance.n, instance):
        assert cold == walked
    assert all(solve.bounds == [False] for solve in solves)


def test_probes_per_pivot_solve(monkeypatch):
    # the pivot solves of every variant take the signs the decision's
    # record vouches for and probe little more than their brackets' ends
    # and roots, against the decisions' 43-47 slope probes: a pivot within
    # every piece's least radius, with no walk, at most 6
    solves = _record_solves(monkeypatch)
    bias = BiasSpec(0.5, EquitableTarget())
    running = make_running_instance()
    types, plain, hetero = variants_catalog()
    cases = [(RUNNING_PROFILE, running, running), (types, plain, hetero)]
    for profile, instance, weighted in cases:
        runs = (
            (run_us_vcg, profile, instance),
            (run_bus_vcg, profile, bias, instance),
            (run_us_vcg_hetero, profile, weighted),
        )
        for run, *args in runs:
            solves.clear()
            run(*args)
            assert len(solves) == len(profile) + 1
            pivots = [len(solve.taxes) for solve in solves[1:]]
            assert sum(pivots) <= 15 * len(pivots)
            assert all(len(solve.taxes) <= 6 for solve in solves[1:] if solve.bounds == [])
            assert max(len(solve.taxes) for solve in solves) <= 60


def _all_log_run_inputs(n: int = 200):
    """An n-agent antithetic all-log population (criterion 5's triplet) and
    its per-capita instance."""
    sigma = CharacteristicTriplet(b0=0.0, mu=2.0, mean_type=AgentType((0.4, 0.6), 31.0 / 30.0))
    profile = sigma_population(sigma, n, np.random.default_rng(5))
    instance = BudgetInstance(
        m=2,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
    )
    return profile, instance


def _assert_vouched_but_the_bracket(monkeypatch, run):
    """``run`` a mechanism: its decision's record vouches for every sample
    of the walk but the one bracket's two ends, and every pivot solve is
    certified against it with no walk, probing those two ends and its
    roots: at most 6 slope probes, where the decision's walk samples about
    43."""
    searches, fallbacks = _watch_searches(monkeypatch)
    solves = _record_solves(monkeypatch)
    run()
    (record,) = {id(record): record for record, *_ in searches}.values()
    unvouched = [t for t, _ in record.kept if t not in record.vouched]
    assert len(unvouched) == 2 and len(record.vouched) == len(record.walk) - 2
    assert fallbacks == [] and len(searches) == len(solves) - 1
    assert all(solve.bounds == [] and len(solve.taxes) <= 6 for solve in solves[1:])


def test_runs_leave_a_few_signs_per_pivot_solve(monkeypatch):
    # a 200-agent all-log population: the least radius of each piece of
    # the decision's walk covers every pivot, which probes only its
    # bracket's ends before the root search
    profile, instance = _all_log_run_inputs()
    _assert_vouched_but_the_bracket(monkeypatch, lambda: run_us_vcg(profile, instance))


def _count_slope_probes(patch) -> list[float]:
    """The taxes of every slope probe from here on: each probe evaluates
    the money curve's f' once, and nothing else in a solve does."""
    taxes = []
    deriv = MoneyCurve.deriv
    patch.setattr(MoneyCurve, "deriv", lambda curve, t: taxes.append(t) or deriv(curve, t))
    return taxes


def test_pivot_solves_make_a_few_slope_probes(monkeypatch):
    # every slope probe evaluates f' once (the inner stage is closed-form),
    # so MoneyCurve.deriv counts them: a pivot solve probes its unproven
    # signs and its bracket's two ends, and the secant in (log t,
    # log(gain/cost)) lands on the root, at most 3 probes per pivot solve
    # on average (exactly 3 here; 9 with a root search that opened at the
    # midpoint)
    profile, instance = _all_log_run_inputs()
    taxes = _count_slope_probes(monkeypatch)
    optimize(mean_type(profile), instance, run=solver._Run(instance))
    decision = len(taxes)  # the run's first solve walks, as this one does
    run_us_vcg(profile, instance)
    assert len(taxes) - 2 * decision <= 3 * len(profile)


def test_certified_pivot_solves_pin_their_slope_probes(monkeypatch):
    # the pivot solves' slope probes, summed over 8 seeds of 40 fuzzed
    # agents for each solver kind of the plain and hetero runs, and over
    # the three n=150 runs of the variants_mixed catalog.  Every kind is
    # certified in one form, and a pivot outside a piece's least radius
    # walks on the signs vouched for within its reach; a change to the
    # bounds, the record or the root search moves these counts
    taxes = _count_slope_probes(monkeypatch)
    counts = {}
    for kind in _FUZZ_KINDS:
        for hetero in (False, True):
            total = 0
            for seed in range(8):
                solve, run = _fuzzed_pivots(seed, kind, 40, hetero)
                solve(run=run)
                taxes.clear()
                for i in range(40):
                    solve(i, run)
                total += len(taxes)
            counts[kind, hetero] = total
    types, instance, weighted = variants_catalog(150)
    bias = BiasSpec(0.5, EquitableTarget())
    runs = {
        "us": (lambda: optimize(mean_type(types), instance), lambda: run_us_vcg(types, instance)),
        "biased": (
            lambda: optimize_biased(mean_type(types), bias, instance),
            lambda: run_bus_vcg(types, bias, instance),
        ),
        "hetero": (
            lambda: optimize_hetero(types, weighted),
            lambda: run_us_vcg_hetero(types, weighted),
        ),
    }
    for name, (decide, run) in runs.items():
        taxes.clear()
        decide()
        decision = len(taxes)  # the run's first solve is this cold one
        run()
        counts[name] = len(taxes) - 2 * decision
    assert counts == {
        ("all-log", False): 3628,
        ("all-log", True): 3627,
        ("water-fill", False): 3858,
        ("water-fill", True): 3925,
        ("kt-b0", False): 6630,
        ("kt-b0", True): 6696,
        "us": 766,
        "biased": 900,
        "hetero": 751,
    }


def test_benchmark_catalogs_certify_every_pivot(monkeypatch):
    # the variants_mixed benchmark's catalog (n=150: US, biased, hetero)
    # and a 200-agent all-log population: the least radius of each piece
    # of the decision's walk covers every pivot solve, and none falls back
    # to a cold solve.  The pivots whose own probes move a bracket walk on
    # the vouched signs
    types, instance, weighted = variants_catalog(150)
    profile, all_log = _all_log_run_inputs()
    bias = BiasSpec(0.5, EquitableTarget())
    runs = {
        "us": (150, lambda: run_us_vcg(types, instance)),
        "biased": (150, lambda: run_bus_vcg(types, bias, instance)),
        "hetero": (150, lambda: run_us_vcg_hetero(types, weighted)),
        "all-log": (200, lambda: run_us_vcg(profile, all_log)),
    }
    searches, fallbacks = _watch_searches(monkeypatch)
    solves = _record_solves(monkeypatch)
    moved = {}
    for name, (n, run) in runs.items():
        searches.clear()
        solves.clear()
        run()
        assert fallbacks == [] and len(searches) == n
        moved[name] = sum(solve.bounds == [False] for solve in solves[1:])
    assert moved == {"us": 8, "biased": 0, "hetero": 1, "all-log": 0}


def test_biased_runs_leave_a_few_signs_per_pivot_solve(monkeypatch):
    # the biased twin, on a 200-agent mixed catalog with the equitable
    # target: each sample's radius keeps the padding of the reweighted
    # term, and the least of them still covers every biased pivot solve
    types, instance, _ = variants_catalog(200)
    bias = BiasSpec(0.5, EquitableTarget())
    _assert_vouched_but_the_bracket(monkeypatch, lambda: run_bus_vcg(types, bias, instance))


def _watch_searches(patch):
    """Watch the slope records made from here on, each keeping the
    ``terms`` and the ``walk`` it is made from, and the solves certified
    against them: ``searches`` keeps (record, objective, probe, samples)
    for each solve that takes its samples from a record, ``fallbacks``
    (record, objective) for each where a probe contradicts a vouched sign,
    which is solved cold."""
    searches, fallbacks = [], []

    class Watched(solver._SlopeRecord):
        def __init__(self, objective, terms, walk):
            super().__init__(objective, terms, walk)
            self.terms, self.walk = terms, walk

        def samples(self, other, probe):
            samples = super().samples(other, probe)
            if samples is None:
                fallbacks.append((self, other))
            else:
                searches.append((self, other, probe, samples))
            return samples

    patch.setattr(solver, "_SlopeRecord", Watched)
    return searches, fallbacks


def _brackets(samples):
    """The pairs of neighbouring samples whose slope turns from + to <= 0."""
    return [(a, b) for a, b in zip(samples, samples[1:]) if a[1] > 0.0 and not b[1] > 0.0]


def _assert_proven_signs_hold(searches):
    # every kind writes one entry layout, (gain, cost, rest, rest_size,
    # goods); at every sample its record vouches for with a radius that
    # covers a certified search, the search's own probe has the decision's
    # sign, not only where the search used it; and the samples the search takes hold its cold walk's start
    # candidate and brackets, with the walk's bits at the brackets' ends
    assert searches
    for record, other, probe, samples in searches:
        for entry in record.terms.values():
            assert len(entry) == 5 and all(len(good) == 3 for good in entry[4])
        reach = record.reach(other)
        for t, (slope, radius) in record.vouched.items():
            if reach[t > 0.0] <= radius:
                assert (probe(t)[0] > 0.0) == (slope > 0.0), t
        walk = solver._walk(probe, other.instance)
        assert samples[0][0] == walk[0][0] and (samples[0][1] > 0.0) == (walk[0][1] > 0.0)
        assert _brackets(samples) == _brackets(walk)


def _fuzzed_pivots(seed, kind, n, hetero):
    """A fuzzed profile's solve (plain, or hetero with drawn tax weights) and
    a fresh run: ``solve(run=run)`` is the decision, ``solve(i, run)`` agent
    i's pivot solve."""
    rng = np.random.default_rng(seed)
    instance = dataclasses.replace(_fuzz_instance(rng, kind), n=n)
    profile = random_profile(rng, n, instance.m)
    if hetero:
        weights = rng.uniform(0.5, 1.5, n)
        instance = dataclasses.replace(instance, tax_weights=tuple(weights * (n / weights.sum())))
        run = solver._Run(instance, solver._HeteroTotals(profile, instance))

        def solve(i=None, run=None):
            return optimize_hetero(profile, instance, exclude=i, run=run)
    else:
        excluded = excluded_means(profile)
        run = solver._Run(instance)

        def solve(i=None, run=None):
            return optimize(mean_type(profile) if i is None else excluded[i], instance, run=run)

    return solve, run


def _certified_equal_cold(seed, kind, n, hetero):
    """Certify a fuzzed profile's pivot solves against its decision's
    record (``_fuzzed_pivots``); each returns its cold decision, none falls
    back, and every sign the record vouches for holds in each pivot it
    covers.  Returns the certified searches."""
    solve, run = _fuzzed_pivots(seed, kind, n, hetero)
    cold = [solve(i) for i in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        searches, fallbacks = _watch_searches(patch)
        solve(run=run)
        assert [solve(i, run) for i in range(n)] == cold
    assert fallbacks == [] and len(searches) == n
    _assert_proven_signs_hold(searches)
    return searches


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_FUZZ_KINDS),
    n=st.sampled_from([2, 3, 12]),
    hetero=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_certified_pivot_solves_equal_the_cold_search(seed, kind, n, hetero):
    # every pivot solve certified against the decision's record returns
    # the decision of its own cold search, bit for bit, none falls back,
    # and every sign the record vouches for within the pivot's reach is
    # the pivot's own
    _certified_equal_cold(seed, kind, n, hetero)


@pytest.mark.parametrize("hetero", [False, True])
@pytest.mark.parametrize("seed", [0, 3])
def test_certified_runs_on_a_kt_walk_with_an_external_budget(seed, hetero):
    # B0 > 0 makes negative taxes feasible: the walk samples a bounded piece
    # below the kt kink at t = 0, then the open piece above it.  The
    # bounded piece keeps a least radius of its own, over 20 vouched
    # samples or more; at the kink the money curve's marginal is infinite,
    # so no radius vouches for it and every pivot probes it.  No pivot
    # falls back to a cold solve
    searches = _certified_equal_cold(seed, "kt-b0", 12, hetero)
    for record, _, _, samples in searches:
        bounded = [t for t in record.vouched if t < 0.0]
        assert record.radii[0] < math.inf and len(bounded) >= 20
        assert 0.0 not in record.vouched
        (size,) = [size for t, _, size in samples if t == 0.0]
        assert not math.isnan(size)


def _fuzz_bias(rng, instance, target, psi, lam):
    # an equitable, constant or three-row table target drawn for the
    # instance (the table's taxes span both signs, for kt catalogs with B0 >
    # 0), with or without an exp_decay tax preference
    m = instance.m
    if target == "constant":
        target = ConstantTarget(tuple(rng.dirichlet(np.ones(m))))
    elif target == "table":
        taxes = tuple(np.sort(rng.uniform(-5.0, 60.0, 3)).tolist())
        target = TableTarget(taxes, tuple(tuple(rng.dirichlet(np.ones(m))) for _ in taxes))
    else:
        target = EquitableTarget()
    if psi:
        amplitude, decay_scale = rng.uniform(0.5, 5.0), rng.uniform(1.0, 50.0)
        psi = TaxPreference.exp_decay(float(amplitude), float(decay_scale))
    else:
        psi = TaxPreference.none()
    return BiasSpec(lam, target, psi)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_FUZZ_KINDS),
    n=st.sampled_from([2, 3, 12]),
    target=st.sampled_from(["equitable", "constant", "table"]),
    psi=st.booleans(),
    lam=st.sampled_from([0.1, 0.5, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_certified_biased_pivot_solves_equal_the_cold_search(seed, kind, n, target, psi, lam):
    # the biased solves of one run share its target-side table and are
    # certified against the first one's slope terms, the reweighted term
    # bounded by how far each good's level can move; each returns the
    # decision of a cold solve without the run bit for bit, and every sign
    # the bounds prove is the pivot's own
    rng = np.random.default_rng(seed)
    instance = dataclasses.replace(_fuzz_instance(rng, kind), n=n)
    profile = random_profile(rng, n, instance.m)
    bias = _fuzz_bias(rng, instance, target, psi, lam)
    run = solver._Run(instance, solver._TargetSides(bias, instance))
    excluded = excluded_means(profile)
    cold = [optimize_biased(excl, bias, instance) for excl in excluded]
    with pytest.MonkeyPatch.context() as patch:
        searches, fallbacks = _watch_searches(patch)
        optimize_biased(mean_type(profile), bias, instance, run=run)
        certified = [optimize_biased(excl, bias, instance, run=run) for excl in excluded]
    assert certified == cold
    assert fallbacks == [] and len(searches) == n
    _assert_proven_signs_hold(searches)


def test_certified_solves_of_another_kind_stay_cold(monkeypatch):
    # a run belongs to one instance and one solver kind: a solve handed a
    # run of another kind, instance, table or profile is refused, and a
    # solve without a run keeps its cold search while a run's record exists
    solves = _record_solves(monkeypatch)
    instance = _slope_instance("mixed")
    first, other = AgentType((0.5, 0.3, 0.2), 1.1), AgentType((0.45, 0.35, 0.2), 1.0)
    bias = BiasSpec(0.5, EquitableTarget())
    profile = (first, other)
    weighted = dataclasses.replace(instance, n=2, tax_weights=(1.5, 0.5))
    plain_run, weighted_run = solver._Run(instance), solver._Run(weighted)
    biased_run = solver._Run(instance, solver._TargetSides(bias, instance))
    hetero_run = solver._Run(weighted, solver._HeteroTotals(profile, weighted))
    refused = [
        # another kind
        lambda: optimize(other, instance, run=biased_run),
        lambda: optimize_biased(other, bias, instance, run=plain_run),
        lambda: optimize_hetero(profile, weighted, run=weighted_run),
        # another instance, equal to the run's
        lambda: optimize(other, dataclasses.replace(instance), run=plain_run),
        lambda: optimize_biased(other, bias, dataclasses.replace(instance), run=biased_run),
        lambda: optimize_hetero(profile, dataclasses.replace(weighted), run=hetero_run),
        # another table (of an equal bias) or profile
        lambda: optimize_biased(other, BiasSpec(0.5, EquitableTarget()), instance, run=biased_run),
        lambda: optimize_hetero(profile[::-1], weighted, run=hetero_run),
    ]
    for solve in refused:
        with pytest.raises(DomainError, match="belongs to another"):
            solve()
    plain, biased = optimize(other, instance), optimize_biased(other, bias, instance)
    optimize_biased(first, bias, instance, run=biased_run)
    solves.clear()
    assert optimize(other, instance) == plain
    assert optimize_biased(other, bias, instance) == biased
    cold = [len(solve.taxes) for solve in solves]
    assert optimize_biased(other, bias, instance, run=biased_run) == biased
    assert min(cold) >= 40
    assert solves[-1].bounds == [] and len(solves[-1].taxes) <= 15


def test_certified_pivot_solve_at_a_sampled_root_needs_no_fallback(monkeypatch):
    # without agent 0 the others are one type: agent 1 of two far-apart
    # types, or agents 1 and 2 of three; their optimum (per-capita all-log,
    # q = 1/2: t* = (20 / w_money)**2) is put on a tax the decision's walk
    # samples, where their slope is 0 to rounding.  No bound proves its
    # sign there, so agent 0's pivot probes it, with the bits the cold
    # search samples, and no pivot solve falls back.  With three agents
    # that sample ends the decision's bracket, so no radius vouches for it
    searches, fallbacks = _watch_searches(monkeypatch)
    for n in (2, 3):
        instance = BudgetInstance(
            m=2,
            n=n,
            external_budget=0.0,
            gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
            money_curve=MoneyCurve.power(0.5),
            semantics="per_capita",
        )
        sampled = instance.tax_floor + instance.tax_epsilon + 1e-8 * 2.0**35
        other = AgentType((0.1, 0.9), 20.0 / math.sqrt(sampled))
        if n == 2:
            profile = (AgentType((0.9, 0.1), 3.0), other)
        else:
            profile = (AgentType((0.11, 0.89), 1.1 * other.money_weight), other, other)
        cold = [optimize(excl, instance) for excl in excluded_means(profile)]
        assert cold[0].tax == pytest.approx(sampled, rel=1e-12)
        run = solver._Run(instance)
        searches.clear()
        optimize(mean_type(profile), instance, run=run)
        assert [optimize(excl, instance, run=run) for excl in excluded_means(profile)] == cold
        assert fallbacks == [] and len(searches) == n
        (size,) = [size for t, _, size in searches[0][3] if t == sampled]
        assert not math.isnan(size)
        assert n == 2 or sampled not in run.record.vouched


def _planted(run, planted):
    """``run``'s record made again with the decision's slope and its gain
    term planted far too large (+, with a wide radius) at each tax of
    ``planted``."""
    record = run.record
    terms, walk = dict(record.terms), list(record.walk)
    for k, (t, _, size) in enumerate(walk):
        if t in planted:
            terms[t] = (1e300, *terms[t][1:])
            walk[k] = (t, 1.0, size)
    run.record = solver._SlopeRecord(record.objective, terms, walk)


@pytest.mark.parametrize("biased", [False, True])
def test_false_proven_sign_falls_back_to_the_cold_search(monkeypatch, biased):
    # a record planted with a + sign at the second to fourth of the six
    # samples past the decision's root where its slope stayed <= 0 vouches
    # for the third, with a radius that covers every pivot, which no
    # pivot's slope has: each pivot walks on the vouched signs (at once, or
    # once a planted sample next to the planted sign change shows its
    # bracket moved); the probe of the planted bracket end it meets
    # disagrees, and every pivot solve falls back to its cold search and
    # its result.  The first 6 agents of the catalog and the first 12
    types, instance, _ = variants_catalog()
    bias = BiasSpec(0.5, EquitableTarget())
    searches, fallbacks = _watch_searches(monkeypatch)

    def solve(agent, run=None):
        if biased:
            return optimize_biased(agent, bias, instance, run=run)
        return optimize(agent, instance, run=run)

    for n in (6, 12):
        profile = types[:n]
        run = solver._Run(instance, solver._TargetSides(bias, instance) if biased else None)
        excluded = excluded_means(profile)
        cold = [solve(excl) for excl in excluded]
        searches.clear()
        fallbacks.clear()
        solve(mean_type(profile), run)
        assert [solve(excl, run) for excl in excluded] == cold
        assert len(searches) == n and fallbacks == []
        past = [t for t, _, _ in run.record.walk[-6:]]
        _planted(run, past[1:4])
        assert past[2] in run.record.vouched
        assert [solve(excl, run) for excl in excluded] == cold
        assert len(fallbacks) == n


def test_a_run_stretched_past_the_roots_falls_back_to_the_cold_search(monkeypatch):
    # a record planted with a + sign at every sample of the open piece up
    # to the third past the decision's root vouches for every pivot's own
    # root bracket as +: each pivot walks on the vouched signs (at once, or
    # once the probe of the planted sign change shows its bracket moved),
    # the probe of the planted bracket end it meets disagrees, and every
    # pivot solve falls back to its cold search and its result.  The first
    # 6 agents of the catalog and the first 12
    types, instance, _ = variants_catalog()
    searches, fallbacks = _watch_searches(monkeypatch)
    for n in (6, 12):
        profile = types[:n]
        excluded = excluded_means(profile)
        cold = [optimize(excl, instance) for excl in excluded]
        fallbacks.clear()
        run = solver._Run(instance)
        root = optimize(mean_type(profile), instance, run=run).tax
        walk = [t for t, _, _ in run.record.walk]
        last = [t for t in walk if t > root][2]
        assert max(c.tax for c in cold) < last
        _planted(run, walk[: walk.index(last) + 1])
        assert [optimize(excl, instance, run=run) for excl in excluded] == cold
        assert searches == [] and len(fallbacks) == n


class _BracketProbe:
    """A probe of ``slope_of(t) -> (slope, size)`` for the slope root finder.

    It keeps its calls, checks that each lies strictly inside the bracket
    left by the calls before it and gets no nan slope, and stops a search
    that runs past 200 probes.
    """

    def __init__(self, slope_of, lo, hi):
        self.slope_of, self.lo, self.hi = slope_of, lo, hi
        self.calls = []

    def __call__(self, t, valued=False):
        assert self.lo < t < self.hi, (self.lo, t, self.hi)
        self.calls.append(t)
        assert len(self.calls) <= 200
        slope, size = self.slope_of(t)
        assert not math.isnan(slope), t
        if slope > 0.0:
            self.lo = t
        else:
            self.hi = t
        return slope, size, math.nan

    def root(self):
        ends = self.slope_of(self.lo), self.slope_of(self.hi)
        return solver._slope_root(self, self.lo, self.hi, *ends)


@pytest.mark.parametrize(
    "lo, root",
    [(1.0, 1.3), (1.0, 1.0001), (1.0, 1.999), (256.0, 374.6), (1e-6, 1.7e-6), (4e6, 5e6)],
)
@pytest.mark.parametrize("exponent", [1.0, 0.5, 0.2])
def test_slope_root_meets_the_bound_on_a_smooth_slope(lo, root, exponent):
    # the slope of log(t) against a power cost t**exponent that balances at
    # root, on a ratio-2 bracket as the sampling leaves it
    kappa = root**-exponent / exponent

    def slope_of(t):
        gain, cost = 1.0 / t, kappa * exponent * t ** (exponent - 1.0)
        return gain - cost, max(gain, cost)

    probe = _BracketProbe(slope_of, lo, 2.0 * lo)
    t = probe.root()
    slope, size = slope_of(t)
    assert abs(slope) <= solver._ROUNDING * size
    assert t == pytest.approx(root, rel=1e-14)
    assert len(probe.calls) <= 2  # the secant in (log t, log(gain/cost)) lands on it


@pytest.mark.parametrize("below, above", [(1.0, -2.0), (3.0, -0.5), (2.0, -2.0)])
def test_slope_root_at_a_kink_returns_the_end_with_the_smaller_slope(below, above):
    # a step slope never meets its rounding bound: the bracket closes to the
    # adjacent floats around the step, and the end with the smaller |slope|
    # (the lower one on a tie) is the maximum
    step = 1.2345
    probe = _BracketProbe(lambda t: (below if t < step else above, 4.0), 1.0, 2.0)
    t = probe.root()
    assert t == (math.nextafter(step, 0.0) if below <= -above else step)


@pytest.mark.parametrize("gain", [0.5, 2.0, 1e6])
def test_slope_root_below_the_kt_kink(gain):
    # below the kt money curve's kink the cost's slope grows like
    # |t|**(beta - 1) and is -inf at t = 0 itself: the interpolation through
    # the -inf end is not finite, so the search bisects in log(-t), with
    # the float next to 0 standing in for the end at 0, until a probe
    # replaces it; the ordinate is linear in log(-t), so the interpolation
    # then lands (a gain of 1e6 puts the root at -1e-20; 6 probes for each
    # gain, 76 for 1e6 when the search ran in raw t)
    def slope_of(t):
        cost = (-t) ** -0.3 if t < 0.0 else math.inf
        return gain - cost, max(gain, cost)

    probe = _BracketProbe(slope_of, -16.0, 0.0)
    t = probe.root()
    assert -16.0 < t <= 0.0
    assert t == pytest.approx(-(gain ** (-1.0 / 0.3)), rel=1e-14)
    assert len(probe.calls) <= 10


def test_slope_root_terminates_on_sign_noise():
    # a slope whose noise (1e-9) is far above its rounding bound changes sign
    # at random near its root: the search ends at adjacent floats inside the
    # noise band
    for root in np.linspace(1.05, 1.95, 19):

        def slope_of(t):
            return root - t + 1e-9 * math.sin(1e15 * t), 1.0

        probe = _BracketProbe(slope_of, 1.0, 2.0)
        t = probe.root()
        assert abs(t - root) <= 1e-9
        assert math.nextafter(probe.lo, 2.0) == probe.hi


def _bisected_slope_root(probe, lo, hi, at_lo, at_hi):
    """Reference: bisection of the sign change, with the root finder's two
    stopping rules."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if at_lo <= -at_hi else hi
        slope, size, _ = probe(mid)
        if abs(slope) <= solver._ROUNDING * size:
            return mid
        if slope > 0.0:
            lo, at_lo = mid, slope
        else:
            hi, at_hi = mid, slope


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_FUZZ_KINDS))
@settings(max_examples=80, deadline=None)
def test_slope_root_matches_bisection(seed, kind):
    rng = np.random.default_rng(seed)
    instance = _fuzz_instance(rng, kind)
    agent = random_profile(rng, 1, instance.m)[0]
    got = optimize(agent, instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_slope_root", _bisected_slope_root)
        ref = optimize(agent, instance)
    assert got.tax == pytest.approx(ref.tax, rel=1e-9, abs=0.0)
    v, v_ref = valuation(agent, got, instance), valuation(agent, ref, instance)
    assert v >= v_ref - 1e-12 * max(1.0, abs(v_ref))


_SLOPE_TARGETS = [
    # (catalog, target, taxes): the equitable target on an all-log catalog
    # shares one level everywhere; on the mixed catalog it takes the deep
    # branch below a pool of 1 (the log good alone) and the floored
    # common level above; the table's taxes lie inside its segments
    ("log", EquitableTarget(), (0.05, 3.0, 40.0)),
    ("mixed", EquitableTarget(), (0.05, 0.5, 3.0, 12.0, 40.0)),
    ("mixed", ConstantTarget((0.2, 0.5, 0.3)), (0.05, 3.0, 40.0)),
    (
        "mixed",
        TableTarget((0.0, 10.0, 50.0), ((0.2, 0.5, 0.3), (0.5, 0.2, 0.3), (0.3, 0.3, 0.4))),
        (0.5, 3.0, 12.0, 40.0),
    ),
]


def _slope_instance(kind):
    curves = {
        "log": (GainCurve.log(10.0), GainCurve.log(4.0), GainCurve.log(6.0)),
        "mixed": (GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
    }[kind]
    return BudgetInstance(
        m=3,
        n=150,
        external_budget=0.0,
        gain_curves=curves,
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
    )


@pytest.mark.parametrize("psi", [TaxPreference.none(), TaxPreference.exp_decay(3.0, 5.0)])
@pytest.mark.parametrize("kind, target, taxes", _SLOPE_TARGETS)
def test_biased_slope_matches_central_differences(monkeypatch, psi, kind, target, taxes):
    solves = _record_solves(monkeypatch)
    instance = _slope_instance(kind)
    agent = AgentType((0.5, 0.3, 0.2), 1.1)
    optimize_biased(agent, BiasSpec(0.5, target, psi), instance)
    [(probe,)] = [solve.probes for solve in solves]
    for t in taxes:
        if isinstance(target, EquitableTarget):
            xhat = equitable_allocation(t, instance)
            deep = kind == "mixed" and instance.pool(t) < 1.0
            assert (np.count_nonzero(xhat) == 1) == deep
        h = 1e-5 * t
        difference = (probe(t + h, True)[2] - probe(t - h, True)[2]) / (2.0 * h)
        slope = probe(t)[0]
        assert slope == pytest.approx(difference, rel=1e-7, abs=0.0), t


@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(_SLOPE_TARGETS[:3]),
    lam=st.floats(0.0, 20.0),
    amplitude=st.floats(1e3, 1e7) | st.floats(-1e7, -1e3),
    decay=st.floats(0.5, 50.0),
)
@settings(max_examples=80, deadline=None)
def test_biased_slope_root_matches_bisection_where_other_terms_dominate(
    seed, case, lam, amplitude, decay
):
    # psi' of a large amplitude (either sign), or the reweighted term of a
    # large lam, outweighs the gain term over much of the tax axis, so the
    # sum of the slope's positive or negative terms can exceed its largest
    # term: the root search on log(P/N) neither raises nor leaves
    # bisection's root.  The table target is left out: its slope jumps at
    # the table's taxes, so a bracket can hold several roots, and a root
    # search need not find bisection's
    kind, target, _ = case
    instance = _slope_instance(kind)
    agent = random_profile(np.random.default_rng(seed), 1, 3)[0]
    bias = BiasSpec(lam, target, TaxPreference.exp_decay(amplitude, decay))
    outweighed = []
    at = solver._BiasedObjective.at

    def recording(objective, t):
        entry = at(objective, t)
        outweighed.append(max(map(abs, entry[3])) > entry[2])
        return entry

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver._BiasedObjective, "at", recording)
        got = optimize_biased(agent, bias, instance)
        assert any(outweighed)
        patch.setattr(solver, "_slope_root", _bisected_slope_root)
        ref = optimize_biased(agent, bias, instance)
    assert got.tax == pytest.approx(ref.tax, rel=1e-9, abs=0.0)
    v = valuation(agent, got, instance) + bias_value(bias, got, instance)
    v_ref = valuation(agent, ref, instance) + bias_value(bias, ref, instance)
    assert v >= v_ref - 1e-12 * max(1.0, abs(v_ref))


@pytest.mark.parametrize(
    "bias",
    [
        BiasSpec(0.5, EquitableTarget()),
        BiasSpec(0.7, ConstantTarget((0.35, 0.65))),
        BiasSpec(0.5, EquitableTarget(), TaxPreference.exp_decay(20.0, 100.0)),
    ],
)
def test_biased_tax_is_stationary(monkeypatch, bias):
    # on the closed-form all-log running example the slope at the returned
    # tax is within its rounding bound: the tax is resolved past the value
    # plateau that a value-comparison search stops on
    solves = _record_solves(monkeypatch)
    d = optimize_biased(mean_type(RUNNING_PROFILE), bias, make_running_instance())
    [(probe,)] = [solve.probes for solve in solves]
    slope, size, _ = probe(d.tax)
    assert abs(slope) <= solver._ROUNDING * size


def _numpy_equitable(t, instance):
    # the equitable allocation with its numpy renormalisation, as it was
    # computed before the plain-float form
    x = np.array(solver._equalised(t, instance)[0])
    return x / x.sum()


def _field_by_field_side(bias, instance, t):
    # the target-side entry as it was computed field by field, with numpy
    # arrays and each 1/theta_j'(s_j) taken twice (spend rates and
    # phantom weights)
    target, lam, curves = bias.target, bias.lam, instance.gain_curves
    pool = instance.pool(t)
    if isinstance(target, EquitableTarget):
        xhat = _numpy_equitable(t, instance)
        inv = [
            1.0 / curve.deriv(xj * pool) if xj > 0.0 else 0.0
            for xj, curve in zip(xhat.tolist(), curves)
        ]
        scale = instance.pool_rate / math.fsum(inv)
        rates = np.array([r * scale for r in inv])
    else:
        xhat = np.asarray(target.allocation_at(t, instance), dtype=float)
        if isinstance(target, ConstantTarget):
            rates = xhat * instance.pool_rate
        else:
            u, du = target._interpolated(t)
            rates = pool * ((du - xhat * du.sum()) / u.sum()) + xhat * instance.pool_rate
    raw = np.empty(instance.m)
    for j, (xj, curve) in enumerate(zip(xhat, curves)):
        if xj > 0.0:
            raw[j] = 1.0 / curve.deriv(float(xj) * pool)
        else:
            at_zero = curve.deriv_at_zero()
            raw[j] = 0.0 if math.isinf(at_zero) else 1.0 / at_zero
    total = float(raw.sum())
    ahat = (raw / total).tolist()
    levels, raw_slope = [], []
    for xj, r, rate, curve in zip(xhat.tolist(), raw.tolist(), rates.tolist(), curves):
        spend = xj * pool
        levels.append(curve.value(spend) if r > 0.0 else 0.0)
        raw_slope.append(-curve.deriv2(spend) * rate * r * r if spend > 0.0 else 0.0)
    shift = math.fsum(raw_slope)
    slope = [(d - a * shift) / total for d, a in zip(raw_slope, ahat)]
    goods = [g for g in zip(ahat, levels, slope, rates.tolist()) if g[0] > 0.0]
    at_target = math.fsum(a * level for a, level, _, _ in goods)
    at_target_slope = math.fsum(d * level + rate / total for _, level, d, rate in goods)
    return ahat, levels, slope, lam * at_target, lam * at_target_slope


def _bits(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return float(value).hex()


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([*_FUZZ_KINDS, "2 to 9 goods"]),
    target=st.sampled_from(["equitable", "constant", "table"]),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_target_side_equals_the_field_by_field_entry(seed, kind, target):
    # each target-side entry, computed in one pass in plain floats, carries
    # the bits of the field-by-field numpy computation it replaces, at
    # taxes from the feasible start up, for the constant and table targets
    # on random catalogs (numpy sums left to right below 8 terms and
    # pairwise from 8 on, so one catalog of each size from 2 to 9 goods
    # spans the switch).  The equitable target takes r_j, its levels and
    # its spend rates from the pass that finds its level, not from
    # 1/theta_j', theta_j and theta_j'' at xhat_j pool, so it agrees to
    # rounding: 3.3e-16 in a, 6.4e-15 in the levels and 3.1e-12 of the
    # row's largest a'_j (the cancellation in r' - a sum r') over 3,000
    # seeds of this draw
    rng = np.random.default_rng(seed)
    if kind == "2 to 9 goods":
        instances = [
            random_instance(rng, m, 3, diverging_only=False, with_types=False)
            for m in range(2, 10)
        ]
    else:
        instances = [_fuzz_instance(rng, kind)]
    for instance in instances:
        bias = _fuzz_bias(rng, instance, target, False, 0.5)
        start = solver._walk_origin(instance)[0]
        sides = solver._TargetSides(bias, instance)
        for t in start + 10.0 ** rng.uniform(-8.0, 3.0, 6):
            t = float(t)
            entry, reference = sides.at(t), _field_by_field_side(bias, instance, t)
            if target != "equitable":
                assert _bits(entry) == _bits(reference), t
                continue
            (a, levels, slope, *sums), (a_ref, levels_ref, slope_ref, *sums_ref) = entry, reference
            assert np.allclose(a, a_ref, rtol=0.0, atol=1e-14), t
            for got, want in [*zip(levels, levels_ref), *zip(sums, sums_ref)]:
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), t
            row = max(map(abs, slope_ref))
            assert np.allclose(slope, slope_ref, rtol=0.0, atol=1e-10 * row), t
            assert _bits(equitable_allocation(t, instance)) == _bits(_numpy_equitable(t, instance))


def test_a_solve_water_fills_each_probed_tax_once(monkeypatch):
    # a solve keeps the inner evaluation of each tax it probes: on the
    # mixed catalog the valued candidates, the decision's allocation and a
    # walk after a moved bracket water-fill nothing twice, for the plain,
    # biased and hetero solves, cold or certified (where a decision at a
    # start vouched for without a probe takes one water-fill more)
    solves = _record_solves(monkeypatch)
    fills = []
    original = solver._water_fill

    def counted(weights, curves, budget):
        fills.append(budget)
        return original(weights, curves, budget)

    monkeypatch.setattr(solver, "_water_fill", counted)
    types, instance, hetero = variants_catalog(12)
    bias = BiasSpec(0.5, EquitableTarget())
    runs = (
        lambda: optimize(types[0], instance),
        lambda: optimize_biased(types[0], bias, instance),
        lambda: optimize_hetero(types, hetero),
        lambda: run_us_vcg(types, instance),
        lambda: run_bus_vcg(types, bias, instance),
        lambda: run_us_vcg_hetero(types, hetero),
    )
    for k, run in enumerate(runs):
        solves.clear()
        fills.clear()
        run()
        distinct = sum(len(set(solve.taxes)) for solve in solves)
        assert distinct <= len(fills) <= distinct + (len(solves) if k >= 3 else 0)
        if k < 3:
            assert len(fills) == distinct


def test_mixed_catalog_runs_pin_their_inner_stage_counts(monkeypatch):
    # one seeded n=150 run of each variant on the variants_mixed benchmark's
    # catalog: its water-fills, the most Newton sweeps of one fill, and its
    # target-side misses (one equalising pass each) with their most sweeps.
    # A change to the inner stage or the tax search moves these counts
    sweeps, levels = [], []
    fill, equalised = solver._water_fill, solver._equalised

    def counted_fill(laws, curves, budget):
        out = fill(laws, curves, budget)
        sweeps.append(out[4])
        return out

    def counted_level(t, instance):
        out = equalised(t, instance)
        levels.append(out[3])
        return out

    monkeypatch.setattr(solver, "_water_fill", counted_fill)
    monkeypatch.setattr(solver, "_equalised", counted_level)
    types, instance, hetero = variants_catalog(150)
    runs = {
        "us": lambda: run_us_vcg(types, instance),
        "biased": lambda: run_bus_vcg(types, BiasSpec(0.5, EquitableTarget()), instance),
        "hetero": lambda: run_us_vcg_hetero(types, hetero),
    }
    counts = {}
    for name, run in runs.items():
        sweeps.clear()
        levels.clear()
        run()
        counts[name] = (len(sweeps), max(sweeps), len(levels), max(levels, default=0))
    assert counts == {"us": (809, 5, 0, 0), "biased": (944, 5, 644, 7), "hetero": (795, 5, 0, 0)}


class _RateFreeTarget:
    """A target that gives allocations but no spend rates."""

    def allocation_at(self, t, instance):
        return EquitableTarget().allocation_at(t, instance)


def test_bias_refuses_an_unknown_target():
    # the tax slope needs the target's spend rates, which only the three
    # target classes define: any other target is refused on construction
    with pytest.raises(DomainError, match="unknown bias target"):
        BiasSpec(0.5, _RateFreeTarget())
