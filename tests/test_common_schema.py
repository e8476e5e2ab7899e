"""Unit tests for schemas and RQL types."""

import pytest

from repro.common import Field, Schema, SchemaError, SQLType


class TestSQLType:
    def test_parse_canonical_names(self):
        assert SQLType.parse("Integer") is SQLType.INTEGER
        assert SQLType.parse("Double") is SQLType.DOUBLE
        assert SQLType.parse("Varchar") is SQLType.VARCHAR
        assert SQLType.parse("Boolean") is SQLType.BOOLEAN

    def test_parse_aliases(self):
        assert SQLType.parse("int") is SQLType.INTEGER
        assert SQLType.parse("float") is SQLType.DOUBLE
        assert SQLType.parse("string") is SQLType.VARCHAR

    def test_parse_unknown_raises(self):
        with pytest.raises(SchemaError):
            SQLType.parse("Blob")

    def test_numeric_predicate(self):
        assert SQLType.INTEGER.is_numeric()
        assert SQLType.DOUBLE.is_numeric()
        assert not SQLType.VARCHAR.is_numeric()


class TestSchema:
    def test_of_parses_specs(self):
        s = Schema.of("srcId:Integer", "pr:Double")
        assert [f.name for f in s] == ["srcId", "pr"]
        assert s[0].type is SQLType.INTEGER

    def test_of_defaults_to_any(self):
        assert Schema.of("x")[0].type is SQLType.ANY

    def test_of_qualified(self):
        s = Schema.of("graph.srcId:Integer")
        assert s[0].relation == "graph"
        assert s.index_of("graph.srcId") == 0
        assert s.index_of("srcId") == 0

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a").index_of("b")

    def test_ambiguous_unqualified_raises(self):
        s = Schema.of("l.id:Integer", "r.id:Integer")
        with pytest.raises(SchemaError):
            s.index_of("id")
        assert s.index_of("l.id") == 0
        assert s.index_of("r.id") == 1

    def test_concat(self):
        s = Schema.of("a:Integer").concat(Schema.of("b:Double"))
        assert [f.name for f in s] == ["a", "b"]

    def test_renamed_requalifies(self):
        s = Schema.of("a:Integer").renamed("t")
        assert s[0].relation == "t"
        assert s.index_of("t.a") == 0

    def test_field_matches_qualified(self):
        f = Field("x", SQLType.INTEGER, relation="t")
        assert f.matches("t.x")
        assert f.matches("x")
        assert not f.matches("u.x")
