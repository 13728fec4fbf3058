"""Property-based tests for the ILP oracle (``tests/refilp``).

Invariants:

* expression arithmetic is exact (Fractions) and linear,
* both backends return feasible solutions that satisfy every constraint,
* both backends agree on the optimum of random bounded ILPs,
* rounding LP solutions is never accepted when infeasible (integrality is
  genuinely enforced).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.refilp import Model, Status, solve_branch_bound, solve_scipy, sum_expr

coef = st.integers(min_value=-4, max_value=4)
rhs_v = st.integers(min_value=-20, max_value=40)


@st.composite
def bounded_ilp(draw):
    n_vars = draw(st.integers(min_value=1, max_value=4))
    n_cons = draw(st.integers(min_value=0, max_value=5))
    m = Model("prop")
    xs = [m.int_var(f"x{i}", lo=0, hi=15) for i in range(n_vars)]
    for _ in range(n_cons):
        coeffs = [draw(coef) for _ in xs]
        expr = sum_expr(c * x for c, x in zip(coeffs, xs))
        m.add(expr <= draw(rhs_v))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in xs]
    m.minimize(sum_expr(w * x for w, x in zip(weights, xs)))
    return m


@given(bounded_ilp())
@settings(max_examples=40, deadline=None)
def test_backends_agree_and_solutions_valid(model):
    a = solve_scipy(model)
    b = solve_branch_bound(model)
    assert a.status == b.status
    if a.status == Status.OPTIMAL:
        assert abs(a.objective - b.objective) < 1e-6
        assert model.check(a.values) == []
        assert model.check(b.values) == []


@given(bounded_ilp())
@settings(max_examples=40, deadline=None)
def test_integer_solutions_are_integral(model):
    sol = solve_scipy(model)
    if sol.optimal:
        for name, v in sol.values.items():
            assert v == int(v)


@given(st.lists(coef, min_size=2, max_size=5), st.lists(coef, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_expression_arithmetic_linear(cs1, cs2):
    n = min(len(cs1), len(cs2))
    m = Model()
    xs = [m.int_var(f"x{i}") for i in range(n)]
    e1 = sum_expr(c * x for c, x in zip(cs1, xs))
    e2 = sum_expr(c * x for c, x in zip(cs2, xs))
    combined = e1 + e2
    point = {f"x{i}": i + 1 for i in range(n)}
    assert combined.value(point) == e1.value(point) + e2.value(point)
    assert (2 * e1).value(point) == 2 * e1.value(point)
    assert (e1 - e2).value(point) == e1.value(point) - e2.value(point)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=2, max_value=9))
@settings(max_examples=40, deadline=None)
def test_integrality_ceiling(target, div):
    """min x s.t. div·x ≥ target is exactly ceil(target/div)."""
    m = Model()
    x = m.int_var("x", lo=0)
    m.add(div * x >= target)
    m.minimize(x)
    for backend in (solve_scipy, solve_branch_bound):
        sol = backend(m)
        assert sol["x"] == -(-target // div)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_fraction_coefficients_exact(k):
    """Fraction coefficients (as produced by Algorithm 1's μ_s) survive the
    modelling layer without float drift."""
    m = Model()
    x = m.int_var("x", lo=0)
    mu = Fraction(1, 3)
    expr = x - mu * x  # (2/3)·x
    assert expr.coeffs["x"] == Fraction(2, 3)
    m.add(expr >= k)
    m.minimize(x)
    sol = solve_scipy(m)
    # (2/3)x >= k -> x >= 1.5k
    assert sol["x"] == -(-3 * k // 2)
