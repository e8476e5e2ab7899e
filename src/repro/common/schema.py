"""Relational schemas for RQL.

RQL's base data types map cleanly onto host-language scalars (the paper maps
them onto Java types; we map onto Python).  A :class:`Schema` is an ordered,
named, typed list of fields.  Schemas support the operations query planning
needs: projection, concatenation (for joins), renaming (for aliases), and
field lookup by possibly-qualified name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.common.errors import SchemaError, TypeCheckError


class SQLType(enum.Enum):
    """RQL scalar types and their Python carriers."""

    INTEGER = "Integer"
    DOUBLE = "Double"
    VARCHAR = "Varchar"
    BOOLEAN = "Boolean"
    # Collection-valued attributes (Section 2: "support for collection-valued
    # attributes ... essential to certain kinds of user-defined aggregations").
    LIST = "List"
    # Escape hatch for user-defined Java/Python objects flowing through UDFs.
    ANY = "Any"

    @classmethod
    def parse(cls, name: str) -> "SQLType":
        """Parse a type name as written in UDA ``inTypes`` declarations."""
        normalized = name.strip().lower()
        for member in cls:
            if member.value.lower() == normalized:
                return member
        aliases = {"int": cls.INTEGER, "float": cls.DOUBLE, "real": cls.DOUBLE,
                   "string": cls.VARCHAR, "text": cls.VARCHAR, "bool": cls.BOOLEAN}
        if normalized in aliases:
            return aliases[normalized]
        raise SchemaError(f"unknown RQL type: {name!r}")

    def is_numeric(self) -> bool:
        return self in (SQLType.INTEGER, SQLType.DOUBLE)


@dataclass(frozen=True)
class Field:
    """A named, typed column, optionally qualified by a relation alias."""

    name: str
    type: SQLType = SQLType.ANY
    relation: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.relation}.{self.name}" if self.relation else self.name

    def matches(self, name: str) -> bool:
        """Whether ``name`` (possibly ``rel.col``) refers to this field."""
        if "." in name:
            rel, col = name.split(".", 1)
            return self.name == col and self.relation == rel
        return self.name == name

    def renamed(self, relation: Optional[str]) -> "Field":
        return Field(self.name, self.type, relation)

    def __repr__(self):
        return f"{self.qualified}:{self.type.value}"


class Schema:
    """An ordered sequence of :class:`Field` with lookup helpers."""

    __slots__ = ("fields",)

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Build a schema from ``"name:Type"`` strings (``Type`` optional).

        >>> Schema.of("srcId:Integer", "pr:Double")
        Schema(srcId:Integer, pr:Double)
        """
        fields = []
        for spec in specs:
            relation = None
            if ":" in spec:
                name, tname = spec.split(":", 1)
                ftype = SQLType.parse(tname)
            else:
                name, ftype = spec, SQLType.ANY
            if "." in name:
                relation, name = name.split(".", 1)
            fields.append(Field(name.strip(), ftype, relation))
        return cls(fields)

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i: int) -> Field:
        return self.fields[i]

    def index_of(self, name: str) -> int:
        """Position of the column ``name`` refers to: the one field whose
        qualified name is exactly ``name``, else the one field
        :meth:`Field.matches`.  This is RQL's one name-resolution rule.

        Raises :class:`TypeCheckError` naming every candidate when no
        field, or more than one, matches.
        """
        matches = [i for i, f in enumerate(self.fields) if f.matches(name)]
        if len(matches) > 1:
            matches = [i for i in matches
                       if self.fields[i].qualified == name] or matches
        if len(matches) == 1:
            return matches[0]
        if matches:
            candidates = ", ".join(self.fields[i].qualified for i in matches)
            raise TypeCheckError(
                f"ambiguous column reference {name!r}: candidates are "
                f"{candidates}")
        raise TypeCheckError(f"unknown column {name!r} in {self}")

    def has(self, name: str) -> bool:
        try:
            self.index_of(name)
            return True
        except SchemaError:
            return False

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation (join output) of two rows."""
        return Schema(self.fields + other.fields)

    def renamed(self, relation: Optional[str]) -> "Schema":
        """Schema with every field re-qualified to a new relation alias."""
        return Schema(f.renamed(relation) for f in self.fields)

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Schema({inner})"
