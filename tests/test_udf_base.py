"""Unit tests for UDF registration, introspection, and caching."""

import pytest

from repro.common.errors import UDFError
from repro.udf import CachingUDF, UDF, UDFRegistry, introspect_udf, udf
from repro.udf.aggregates import JoinDeltaHandler, WhileDeltaHandler
from repro.udf.builtins import Sum


class TestUdfDecorator:
    def test_wraps_function(self):
        @udf(in_types=["Integer"], out_types=["Integer"])
        def double(x):
            return 2 * x

        assert double(4) == 8
        assert double.name == "double"
        assert len(double.input_fields) == 1
        assert repr(double) == "UDF(double/1)"

    def test_arity_enforced(self):
        @udf(in_types=["Integer", "Integer"])
        def add(a, b):
            return a + b

        with pytest.raises(UDFError):
            add(1)

    def test_named_output_fields(self):
        @udf(in_types=["Integer"], out_types=["nbr:Integer", "prdiff:Double"],
             table_valued=True)
        def spread(x):
            return [(x, 0.5)]

        assert [f[0] for f in spread.output_fields] == ["nbr", "prdiff"]

    def test_explicit_name(self):
        @udf(name="MyFn")
        def anything(x):
            return x

        assert anything.name == "MyFn"


class TestIntrospection:
    def test_class_with_evaluate_and_types(self):
        class Tripler:
            in_types = ["Integer"]
            out_types = ["Integer"]

            def evaluate(self, x):
                return 3 * x

        fn = introspect_udf(Tripler)
        assert fn(2) == 6
        assert fn.name == "Tripler"
        assert len(fn.input_fields) == 1

    def test_plain_callable(self):
        fn = introspect_udf(lambda x: x + 1)
        assert fn(1) == 2

    def test_udf_instance_passthrough(self):
        @udf()
        def f(x):
            return x

        assert introspect_udf(f) is f

    def test_uncallable_rejected(self):
        with pytest.raises(UDFError):
            introspect_udf(object())


class TestCachingUDF:
    def test_caches_deterministic(self):
        calls = []

        @udf(in_types=["Integer"])
        def slow(x):
            calls.append(x)
            return x * x

        cached = CachingUDF(slow)
        assert cached(3) == 9
        assert cached(3) == 9
        assert calls == [3]
        assert cached.hits == 1 and cached.misses == 1

    def test_rejects_volatile(self):
        @udf(deterministic=False)
        def rand(x):
            return x

        with pytest.raises(UDFError):
            CachingUDF(rand)

    def test_unhashable_args_bypass(self):
        @udf()
        def head(xs):
            return xs[0]

        cached = CachingUDF(cached_inner := head)
        assert cached([1, 2]) == 1
        assert cached.hits == 0 and cached.misses == 0

    def test_capacity_bound(self):
        @udf()
        def ident(x):
            return x

        cached = CachingUDF(ident, max_entries=2)
        for i in range(5):
            cached(i)
        assert len(cached._cache) == 2


class TestRegistry:
    def test_function_roundtrip(self):
        reg = UDFRegistry()
        reg.register(lambda x: x + 1, name="inc")
        assert reg.function("INC")(1) == 2
        assert reg.is_function("inc")

    def test_caching_applied_on_register(self):
        reg = UDFRegistry(enable_caching=True)
        reg.register(lambda x: x, name="f")
        assert isinstance(reg.function("f"), CachingUDF)

    def test_no_caching_when_disabled(self):
        reg = UDFRegistry(enable_caching=False)
        reg.register(lambda x: x, name="f")
        assert not isinstance(reg.function("f"), CachingUDF)

    def test_aggregator_dispatch(self):
        reg = UDFRegistry()
        reg.register(Sum, name="mysum")
        assert reg.aggregator("mysum").name == "sum"

    def test_builtin_aggregates_resolve(self):
        reg = UDFRegistry()
        for name in ("sum", "count", "min", "max", "avg", "argmin"):
            assert reg.aggregator(name) is not None
            assert reg.is_aggregate(name)

    def test_join_handler_dispatch(self):
        class H(JoinDeltaHandler):
            def update(self, left, right, delta, side):
                return []

        reg = UDFRegistry()
        reg.register(H)
        assert isinstance(reg.join_handler_factory("H")(), H)
        assert reg.is_join_handler("h")

    def test_while_handler_dispatch(self):
        class W(WhileDeltaHandler):
            def update(self, rel, delta):
                return []

        reg = UDFRegistry()
        reg.register(W)
        assert isinstance(reg.while_handler_factory("w")(), W)

    def test_duplicate_rejected(self):
        reg = UDFRegistry()
        reg.register(lambda x: x, name="f")
        with pytest.raises(UDFError):
            reg.register(lambda x: x, name="F")

    def test_unknown_lookups_raise(self):
        reg = UDFRegistry()
        with pytest.raises(UDFError):
            reg.function("nope")
        with pytest.raises(UDFError):
            reg.aggregator("nope")
        with pytest.raises(UDFError):
            reg.join_handler_factory("nope")
        with pytest.raises(UDFError):
            reg.while_handler_factory("nope")
