"""Unit tests for the ILP oracle's modelling layer and both solver backends."""

from fractions import Fraction

import pytest

from tests.refilp import (
    LinExpr,
    Model,
    ModelError,
    SolverError,
    Status,
    as_expr,
    solve,
    solve_branch_bound,
    solve_scipy,
    sum_expr,
)

BACKENDS = [solve_scipy, solve_branch_bound]


# ------------------------------------------------------------- expressions
def test_expr_arithmetic():
    m = Model()
    x = m.int_var("x")
    y = m.int_var("y")
    e = 2 * x + 3 * y - 4
    assert e.coeffs == {"x": Fraction(2), "y": Fraction(3)}
    assert e.constant == -4


def test_expr_sub_and_neg():
    m = Model()
    x = m.int_var("x")
    e = 5 - x
    assert e.coeffs == {"x": Fraction(-1)}
    assert e.constant == 5


def test_expr_div():
    m = Model()
    x = m.int_var("x")
    e = x / 4
    assert e.coeffs["x"] == Fraction(1, 4)


def test_expr_mul_by_expr_rejected():
    m = Model()
    x = m.int_var("x")
    y = m.int_var("y")
    with pytest.raises(ModelError):
        _ = x * y


def test_expr_cancellation_drops_zero_coeffs():
    m = Model()
    x = m.int_var("x")
    e = x - x
    assert e.coeffs == {}


def test_expr_value_evaluation():
    m = Model()
    x = m.int_var("x")
    y = m.int_var("y")
    e = 2 * x + y + 1
    assert e.value({"x": 3, "y": 4}) == 11


def test_expr_value_missing_var():
    m = Model()
    x = m.int_var("x")
    with pytest.raises(ModelError):
        (x + 1).value({})


def test_sum_expr():
    m = Model()
    xs = [m.int_var(f"x{i}") for i in range(3)]
    e = sum_expr(xs)
    assert set(e.coeffs) == {"x0", "x1", "x2"}


def test_as_expr_constant():
    e = as_expr(7)
    assert e.constant == 7
    with pytest.raises(ModelError):
        as_expr("nope")


# ------------------------------------------------------------------ model
def test_duplicate_variable_rejected():
    m = Model()
    m.int_var("x")
    with pytest.raises(ModelError):
        m.int_var("x")


def test_empty_domain_rejected():
    m = Model()
    with pytest.raises(ModelError):
        m.int_var("x", lo=5, hi=2)


def test_constraint_with_undeclared_variable_rejected():
    m1, m2 = Model(), Model()
    x = m1.int_var("x")
    with pytest.raises(ModelError):
        m2.add(x >= 1)


def test_add_requires_constraint():
    m = Model()
    x = m.int_var("x")
    with pytest.raises(ModelError):
        m.add(x)  # type: ignore[arg-type]


def test_objective_undeclared_variable_rejected():
    m1, m2 = Model(), Model()
    x = m1.int_var("x")
    with pytest.raises(ModelError):
        m2.minimize(x)


def test_check_reports_violations():
    m = Model()
    x = m.int_var("x", lo=0, hi=10)
    m.add(x >= 5, name="big")
    assert m.check({"x": 3}) == ["big"]
    assert m.check({"x": 7}) == []
    assert "int:x" in m.check({"x": 5.5})
    assert "ub:x" in m.check({"x": 11})
    assert "missing:x" in m.check({})


# --------------------------------------------------------------- solving
@pytest.mark.parametrize("backend", BACKENDS)
def test_simple_minimize(backend):
    m = Model()
    x = m.int_var("x", lo=0)
    y = m.int_var("y", lo=0)
    m.add(x + y >= 5)
    m.add(x - y <= 1)
    m.minimize(3 * x + 2 * y)
    sol = backend(m)
    assert sol.optimal
    assert m.check(sol.values) == []
    assert sol.objective == pytest.approx(10)  # x=0,y=5


@pytest.mark.parametrize("backend", BACKENDS)
def test_maximize(backend):
    m = Model()
    x = m.int_var("x", lo=0, hi=7)
    m.maximize(2 * x)
    sol = backend(m)
    assert sol.optimal
    assert sol["x"] == 7
    assert sol.objective == pytest.approx(14)


@pytest.mark.parametrize("backend", BACKENDS)
def test_integrality_matters(backend):
    # LP optimum x=2.5; ILP optimum x=3
    m = Model()
    x = m.int_var("x", lo=0)
    m.add(2 * x >= 5)
    m.minimize(x)
    sol = backend(m)
    assert sol.optimal
    assert sol["x"] == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_equality_constraint(backend):
    m = Model()
    x = m.int_var("x", lo=0)
    y = m.int_var("y", lo=0)
    m.add(x + y == 6)
    m.minimize(x - y)
    sol = backend(m)
    assert sol.optimal
    assert sol["x"] + sol["y"] == pytest.approx(6)
    assert sol["y"] == 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible(backend):
    m = Model()
    x = m.int_var("x", lo=0, hi=2)
    m.add(x >= 5)
    m.minimize(x)
    assert backend(m).status == Status.INFEASIBLE


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded(backend):
    m = Model()
    x = m.int_var("x", lo=None, hi=None)
    m.minimize(x)
    assert backend(m).status in (Status.UNBOUNDED, Status.INFEASIBLE)


@pytest.mark.parametrize("backend", BACKENDS)
def test_continuous_variables(backend):
    m = Model()
    x = m.real_var("x", lo=0)
    m.add(3 * x >= 2)
    m.minimize(x)
    sol = backend(m)
    assert sol.optimal
    assert sol["x"] == pytest.approx(2 / 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_integer(backend):
    m = Model()
    x = m.int_var("x", lo=0)
    y = m.real_var("y", lo=0)
    m.add(x + y >= 3.5)
    m.minimize(2 * x + y)
    sol = backend(m)
    assert sol.optimal
    # all-continuous-y solution is best: x=0, y=3.5
    assert sol.objective == pytest.approx(3.5)


def test_model_without_objective_rejected():
    m = Model()
    m.int_var("x")
    with pytest.raises(ModelError):
        solve_scipy(m)
    with pytest.raises(ModelError):
        solve_branch_bound(m)


def test_model_without_variables_rejected():
    m = Model()
    m.objective = LinExpr({}, 1)
    with pytest.raises(ModelError):
        solve_scipy(m)


def test_solve_dispatch():
    m = Model()
    x = m.int_var("x", lo=1, hi=3)
    m.minimize(x)
    assert solve(m, backend="scipy")["x"] == 1
    assert solve(m, backend="bnb")["x"] == 1
    with pytest.raises(SolverError):
        solve(m, backend="nope")


def test_backends_agree_on_random_models():
    import random

    rng = random.Random(42)
    for trial in range(10):
        m = Model(f"r{trial}")
        xs = [m.int_var(f"x{i}", lo=0, hi=20) for i in range(4)]
        for _ in range(5):
            coefs = [rng.randint(-3, 3) for _ in xs]
            rhs = rng.randint(-10, 30)
            expr = sum_expr(c * x for c, x in zip(coefs, xs))
            m.add(expr <= rhs)
        m.minimize(sum_expr((rng.randint(1, 4)) * x for x in xs))
        s1, s2 = solve_scipy(m), solve_branch_bound(m)
        assert s1.status == s2.status
        if s1.optimal:
            assert s1.objective == pytest.approx(s2.objective, abs=1e-6)


def test_solution_as_ints():
    m = Model()
    x = m.int_var("x", lo=2, hi=2)
    m.minimize(x)
    sol = solve_scipy(m)
    assert sol.as_ints() == {"x": 2}
