"""Formula grammar: parsing, printing, evaluation and symbolic derivatives."""

import math

import numpy as np
import pytest

from ssm.expr import (
    BinOp,
    Call,
    Const,
    ExprError,
    Ifelse,
    Neg,
    Sym,
    differentiate,
    parse,
    to_python,
    SCALAR_NAMESPACE,
    VECTOR_NAMESPACE,
)


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestParsing:
    def test_seasonal_rate_formula(self):
        e = parse("r0*(1+e_amp*sin(2*pi*(t/365+phi)))*mu_d")
        assert e.free_symbols() == {"r0", "e_amp", "t", "phi", "mu_d"}
        env = {"r0": 1.5, "e_amp": 0.2, "t": 91.25, "phi": 0.0, "mu_d": 0.3}
        expected = 1.5 * (1 + 0.2 * math.sin(2 * math.pi * (91.25 / 365))) * 0.3
        assert e.eval(env) == pytest.approx(expected, rel=1e-14)

    def test_single_constant(self):
        assert parse("0") == Const(0.0)
        assert parse("3.5e2") == Const(350.0)

    def test_per_capita_rate(self):
        e = parse("beta*I/N")
        assert e.eval({"beta": 0.5, "I": 10, "N": 100}) == pytest.approx(0.05)

    def test_precedence_unary_minus_tighter_than_pow(self):
        # -2^2 groups as (-2)^2
        assert parse("-2^2").eval({}) == pytest.approx(4.0)
        assert parse("-(2^2)").eval({}) == pytest.approx(-4.0)

    def test_pow_right_associative(self):
        assert parse("2^3^2").eval({}) == pytest.approx(512.0)

    def test_pi_is_builtin(self):
        e = parse("sin(pi/2)")
        assert e.free_symbols() == set()
        assert e.eval({}) == pytest.approx(1.0)

    def test_min_max(self):
        assert parse("min(2, 5)").eval({}) == 2
        assert parse("max(x, 0)").eval({"x": -3}) == 0

    def test_ifelse_on_time(self):
        e = parse("ifelse(t < 10, 1, 0.5)")
        assert e.eval({"t": 3}) == 1.0
        assert e.eval({"t": 12}) == 0.5

    def test_syntax_error_reports_column(self):
        with pytest.raises(ExprError) as err:
            parse("beta*(I/N")
        assert "column" in str(err.value)

    def test_unknown_function_rejected(self):
        with pytest.raises(ExprError):
            parse("tan(t)")

    def test_empty_and_trailing(self):
        with pytest.raises(ExprError):
            parse("")
        with pytest.raises(ExprError):
            parse("a + b)")


class TestPrinting:
    ROUND_TRIP = [
        "beta*I/N",
        "r0*(1+e_amp*sin(2*pi*(t/365+phi)))*mu_d",
        "-x^2",
        "a - (b - c)",
        "(a + b)*c",
        "2^3^2",
        "ifelse(t < 10, 1, 0.5)",
        "min(x, max(y, z))",
        "a/(b*c)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_print_parse_identity(self, text):
        tree = parse(text)
        assert parse(str(tree)) == tree

    def test_print_matches_input_modulo_whitespace(self):
        canonical = str(parse("beta * I / N"))
        assert canonical.replace(" ", "") == "beta*I/N"

    def test_random_eval_agreement(self):
        rng = np.random.default_rng(11)
        for text in self.ROUND_TRIP:
            tree = parse(text)
            reparsed = parse(str(tree))
            names = sorted(tree.free_symbols())
            for _ in range(20):
                env = {n: float(rng.uniform(0.2, 3.0)) for n in names}
                assert reparsed.eval(env) == pytest.approx(
                    tree.eval(env), rel=1e-12, abs=1e-12
                )


class TestDerivatives:
    def test_linear_rate_in_state(self):
        d = differentiate(parse("beta*I/N"), "I")
        env = {"beta": 0.7, "I": 42.0, "N": 1000.0}
        assert d.eval(env) == pytest.approx(0.7 / 1000.0, rel=1e-14)
        assert "I" not in d.free_symbols()

    def test_trig_chain(self):
        d = differentiate(parse("sin(2*t)"), "t")
        assert d.eval({"t": 0.3}) == pytest.approx(2 * math.cos(0.6), rel=1e-12)

    def test_linearity_node_for_node(self):
        f = parse("sin(s)")
        g = parse("s^2")
        combined = parse("2*sin(s) + s^2")
        expected = BinOp(
            "+",
            BinOp("*", Const(2.0), Call("cos", (Sym("s"),))),
            BinOp("*", BinOp("*", Const(2.0), Sym("s")), Const(1.0)),
        )
        # compare through evaluation since simplification may reassociate
        d = differentiate(combined, "s")
        for s in (0.1, 0.9, 2.4):
            manual = 2 * differentiate(f, "s").eval({"s": s}) + differentiate(
                g, "s"
            ).eval({"s": s})
            assert d.eval({"s": s}) == pytest.approx(manual, rel=1e-12)
            assert d.eval({"s": s}) == pytest.approx(expected.eval({"s": s}), rel=1e-12)

    def test_derivative_of_constant_and_unrelated(self):
        assert differentiate(parse("4.2"), "x") == Const(0.0)
        assert differentiate(parse("y"), "x") == Const(0.0)
        assert differentiate(parse("x"), "x") == Const(1.0)

    @pytest.mark.parametrize(
        "text,wrt,domain",
        [
            ("beta*S*I/N", "beta", (0.1, 3.0)),
            ("beta*S*I/N", "S", (0.1, 3.0)),
            ("exp(-gamma*t)*I", "gamma", (0.1, 2.0)),
            ("r0*(1+e_amp*sin(2*pi*(t/365+phi)))*mu_d", "phi", (0.1, 1.0)),
            ("x^y", "x", (0.5, 2.0)),
            ("x^y", "y", (0.5, 2.0)),
            ("x^3", "x", (0.2, 2.0)),
            ("log(x/y)", "x", (0.5, 3.0)),
            ("min(x, y)", "x", (0.2, 3.0)),
            ("max(x*y, y^2)", "y", (0.2, 3.0)),
        ],
    )
    def test_against_central_differences(self, text, wrt, domain):
        tree = parse(text)
        deriv = differentiate(tree, wrt)
        rng = np.random.default_rng(hash((text, wrt)) % (2**32))
        names = sorted(tree.free_symbols())
        for _ in range(25):
            env = {n: float(rng.uniform(*domain)) for n in names}

            def f(v, env=env):
                e = dict(env)
                e[wrt] = v
                return tree.eval(e)

            numeric = central_difference(f, env[wrt])
            symbolic = deriv.eval(env)
            assert symbolic == pytest.approx(numeric, rel=2e-6, abs=2e-6)

    def test_derivative_closed_under_grammar(self):
        # every derivative is again printable and reparseable
        for text in (
            "x^y",
            "min(x, y)",
            "ifelse(t < 5, x^2, x)",
            "log(x)*exp(y)",
        ):
            d = differentiate(parse(text), "x")
            assert parse(str(d)) == d

    def test_ifelse_branchwise(self):
        d = differentiate(parse("ifelse(t < 5, x^2, 3*x)"), "x")
        assert d.eval({"t": 1.0, "x": 2.0}) == pytest.approx(4.0)
        assert d.eval({"t": 9.0, "x": 2.0}) == pytest.approx(3.0)


class TestCodegen:
    CASES = [
        "beta*I/N",
        "r0*(1+e_amp*sin(2*pi*(t/365+phi)))*mu_d",
        "-x^2 + min(x, y)",
        "ifelse(t < 10, x, y/2)",
        "exp(log(x))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_scalar_and_vector_namespaces_agree(self, text):
        tree = parse(text)
        names = sorted(tree.free_symbols())
        source = to_python(tree, lambda n: n)
        scalar_fn = eval(  # noqa: S307 - trusted, generated from our own AST
            "lambda %s: %s" % (", ".join(names), source), dict(SCALAR_NAMESPACE)
        )
        vector_fn = eval(  # noqa: S307
            "lambda %s: %s" % (", ".join(names), source), dict(VECTOR_NAMESPACE)
        )
        rng = np.random.default_rng(7)
        for _ in range(20):
            env = {n: float(rng.uniform(0.5, 12.0)) for n in names}
            expected = tree.eval(env)
            assert scalar_fn(**env) == pytest.approx(expected, rel=1e-12)
            assert vector_fn(**env) == pytest.approx(expected, rel=1e-12)
        # vectorized evaluation broadcasts
        envs = {n: rng.uniform(0.5, 12.0, size=8) for n in names}
        stacked = vector_fn(**envs)
        for i in range(8):
            point = {n: envs[n][i] for n in names}
            assert stacked[i] == pytest.approx(tree.eval(point), rel=1e-12)

    @pytest.mark.parametrize("name", ["minimum", "maximum"])
    def test_scalar_min_max_follow_numpy(self, name):
        # a nan in either place, and which of two equal zeros is kept
        values = [math.nan, 0.0, -0.0, 1.0, -math.inf]
        for a in values:
            for b in values:
                got = SCALAR_NAMESPACE[name](a, b)
                want = VECTOR_NAMESPACE[name](np.float64(a), np.float64(b))
                assert repr(got) == repr(float(want)), (a, b)


class TestImmutability:
    def test_nodes_hashable_and_equal_by_value(self):
        a = parse("beta*I/N")
        b = parse("beta * I / N")
        assert a == b
        assert hash(a) == hash(b)
        assert a is not b

    def test_equality_and_hash_depend_on_the_node_type(self):
        assert Const(1.0) != Sym("x")
        # equal fields, different node types
        assert Const("x") != Sym("x")
        assert Neg(Sym("x")) != Call("exp", (Sym("x"),))
        assert hash(parse("exp(-x)^2")) == hash(parse("exp((-x))^2"))
        assert len({parse("a + b"), parse("a+b"), parse("b + a")}) == 2

    def test_fields_cannot_be_assigned(self):
        node = BinOp("+", Sym("x"), Const(1.0))
        with pytest.raises(AttributeError):
            node.op = "-"
        with pytest.raises(AttributeError):
            del node.left
        with pytest.raises(AttributeError):
            node.extra = 1
        assert node == BinOp("+", Sym("x"), Const(1.0))

    def test_constructor_takes_every_field(self):
        with pytest.raises(TypeError):
            BinOp("+", Sym("x"))
        assert repr(Ifelse("<", Sym("t"), Const(1.0), Sym("a"), Sym("b"))) \
            == "Ifelse('<', Sym('t'), Const(1.0), Sym('a'), Sym('b'))"

    def test_shared_subtrees_safe(self):
        base = parse("x + y")
        doubled = BinOp("*", Const(2.0), base)
        assert base.eval({"x": 1, "y": 2}) == 3
        assert doubled.eval({"x": 1, "y": 2}) == 6


# ---------------------------------------------------------------------------
# properties on random expression trees

SYMBOLS = ("x", "y", "t")


def _trees(st, smooth):
    """Random expression trees over SYMBOLS.  With `smooth`, only
    differentiable pieces, and every log argument, power base and divisor
    is kept positive on positive symbol values."""
    positive_leaf = st.one_of(
        st.sampled_from([Sym(n) for n in SYMBOLS]),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]).map(Const))
    if smooth:
        positive = st.recursive(
            positive_leaf,
            lambda p: st.one_of(
                st.tuples(st.sampled_from("+*/"), p, p).map(
                    lambda a: BinOp(*a)),
                st.tuples(p, st.sampled_from([0.5, 2.0, 3.0])).map(
                    lambda a: BinOp("^", a[0], Const(a[1])))),
            max_leaves=4)

        def extend(a):
            return st.one_of(
                st.tuples(st.sampled_from("+-*"), a, a).map(
                    lambda v: BinOp(*v)),
                st.tuples(a, positive).map(lambda v: BinOp("/", *v)),
                st.tuples(positive, a).map(lambda v: BinOp("^", *v)),
                a.map(Neg),
                st.tuples(st.sampled_from(["sin", "cos", "exp"]), a).map(
                    lambda v: Call(v[0], (v[1],))),
                positive.map(lambda v: Call("log", (v,))))

        return st.recursive(positive, extend, max_leaves=6)

    def extend(a):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), a, a).map(
                lambda v: BinOp(*v)),
            a.map(Neg),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), a).map(
                lambda v: Call(v[0], (v[1],))),
            st.tuples(st.sampled_from(["min", "max"]), a, a).map(
                lambda v: Call(v[0], (v[1], v[2]))),
            st.tuples(st.sampled_from(["<", "<=", ">", ">="]), a, a, a,
                      a).map(lambda v: Ifelse(*v)))

    return st.recursive(positive_leaf | st.just(Sym("pi")), extend,
                        max_leaves=8)


def _compiled(tree, namespace):
    source = to_python(tree, lambda n: n)
    return eval(  # noqa: S307 - trusted, generated from our own AST
        f"lambda {', '.join(SYMBOLS)}: {source}", dict(namespace))


def test_property_generated_code_matches_interpreter():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_trees(st, smooth=False), values, values, values)
    def check(tree, xs, ys, ts):
        env = {"x": np.array(xs), "y": np.array(ys), "t": np.array(ts)}
        with np.errstate(all="ignore"):
            try:
                want = np.broadcast_to(tree.eval(env), (8,))
            except (ZeroDivisionError, OverflowError):
                # on a subtree of constants, which stay Python floats
                hypothesis.reject()
            # the array kernels take the interpreter's operations in order
            got = np.broadcast_to(_compiled(tree, VECTOR_NAMESPACE)(**env),
                                  (8,))
        # a negative constant to a fractional constant power is complex
        # on Python floats, nan on numpy's
        hypothesis.assume(want.dtype.kind == got.dtype.kind == "f")
        np.testing.assert_array_equal(got, want)
        scalar_fn = _compiled(tree, SCALAR_NAMESPACE)
        for i in range(8):
            if not np.isfinite(want[i]):
                continue
            point = {n: float(v[i]) for n, v in env.items()}
            try:
                value = scalar_fn(**point)
            except (ZeroDivisionError, OverflowError, ValueError, TypeError):
                continue    # Python floats refuse what numpy would take
            # math.* and numpy's functions may differ in the last bit
            assert value == pytest.approx(want[i], rel=1e-9, abs=1e-9)

    check()


def test_property_derivatives_match_central_differences():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_trees(st, smooth=True), st.sampled_from(SYMBOLS),
                      st.tuples(*[st.floats(0.5, 2.0)] * len(SYMBOLS)))
    def check(tree, wrt, point):
        # numpy scalars: an overflow is inf, not an exception
        env = {n: np.float64(v) for n, v in zip(SYMBOLS, point)}

        def f(v):
            return tree.eval(dict(env, **{wrt: v}))

        with np.errstate(all="ignore"):
            try:
                f0 = f(env[wrt])
                symbolic = differentiate(tree, wrt).eval(env)
            except (ZeroDivisionError, OverflowError):
                # on a subtree of constants, which stay Python floats
                hypothesis.reject()
            # central differences at h, h/2, h/4, Richardson-extrapolated
            # to O(h^4) twice: the gap between the two estimates bounds
            # their error where f turns fast
            d = [central_difference(f, env[wrt], 1e-4 / 2 ** k)
                 for k in range(3)]
        hypothesis.assume(np.isfinite(f0) and abs(f0) < 1e4)
        hypothesis.assume(np.isfinite(symbolic) and abs(symbolic) < 1e4)
        coarse = (4.0 * d[1] - d[0]) / 3.0
        fine = (4.0 * d[2] - d[1]) / 3.0
        tol = 1e-6 * (1.0 + abs(f0) + abs(symbolic))
        assert abs(symbolic - fine) <= tol + 10.0 * abs(fine - coarse)

    check()
