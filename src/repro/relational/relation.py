"""Relations and relational databases.

A :class:`Relation` is a named set of tuples over a fixed attribute
list; a :class:`RelationalDatabase` is a name-indexed collection of
relations plus the chain views defined over them. Tuples preserve
insertion order (deterministic iteration matters for reproducible
benches) while membership tests stay O(1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import SchemaError, UpdateError

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.relational.view import ChainView

__all__ = ["Relation", "RelationalDatabase"]

Tuple = tuple


class Relation:
    """A named relation: attributes plus a set of same-arity tuples."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[str],
        tuples: Iterable[Tuple] = (),
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f"relation {name!r} has duplicate attributes"
            )
        if not self.attributes:
            raise SchemaError(f"relation {name!r} needs attributes")
        self._tuples: dict[Tuple, None] = {}
        for row in tuples:
            self.add(row)

    # -- rows ----------------------------------------------------------------

    def add(self, row: Tuple) -> None:
        if len(row) != len(self.attributes):
            raise UpdateError(
                f"{self.name}: tuple {row!r} has arity {len(row)}, "
                f"expected {len(self.attributes)}"
            )
        self._tuples[tuple(row)] = None

    def discard(self, row: Tuple) -> bool:
        """Remove a tuple; returns whether it was present."""
        return self._tuples.pop(tuple(row), 0) is None

    def __contains__(self, row: Tuple) -> bool:
        return tuple(row) in self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(tuple(self._tuples))

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def tuples(self) -> tuple[Tuple, ...]:
        return tuple(self._tuples)

    # -- attribute helpers ---------------------------------------------------------

    def position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def column(self, attribute: str) -> tuple:
        index = self.position(attribute)
        return tuple(row[index] for row in self)

    def copy(self) -> "Relation":
        return Relation(self.name, self.attributes, self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and set(self._tuples) == set(other._tuples)
        )

    def __str__(self) -> str:
        header = f"{self.name}({', '.join(self.attributes)})"
        body = ", ".join(
            "<" + ", ".join(str(v) for v in row) + ">" for row in self
        )
        return f"{header} = {{{body}}}"

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {self.attributes!r}, "
            f"{list(self._tuples)!r})"
        )


class RelationalDatabase:
    """Named relations plus chain views."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        self._views: dict[str, "ChainView"] = {}
        for relation in relations:
            self.add_relation(relation)

    def add_relation(self, relation: Relation) -> Relation:
        if relation.name in self._relations or relation.name in self._views:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation
        return relation

    def add_view(self, view: "ChainView") -> "ChainView":
        if view.name in self._relations or view.name in self._views:
            raise SchemaError(f"duplicate view name {view.name!r}")
        for name in view.relation_names:
            self.relation(name)  # must exist
        self._views[view.name] = view
        return view

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def view(self, name: str) -> "ChainView":
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"no view named {name!r}") from None

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def copy(self) -> "RelationalDatabase":
        clone = RelationalDatabase(
            relation.copy() for relation in self._relations.values()
        )
        for view in self._views.values():
            clone.add_view(view)
        return clone

    def __str__(self) -> str:
        lines = [str(relation) for relation in self._relations.values()]
        lines.extend(str(view) for view in self._views.values())
        return "\n".join(lines)
