"""Query facility over composition/inverse expressions.

The philosophy of functional databases is "to provide a high level
abstraction of the information content in the form of functions"
(Section 1): querying means applying functions, their inverses and
compositions. A :class:`Query` is such an expression tree:

>>> pupil = fn("teach") * fn("class_list")        # doctest: +SKIP
>>> pupil.image(db, "euclid")                      # doctest: +SKIP
{'john': Truth.TRUE, 'bill': Truth.TRUE}
>>> (~fn("teach")).pairs(db)                       # doctest: +SKIP

``*`` composes (the paper's ``o``), ``~`` inverts. Expressions are
*normalized* into derivations over base functions before evaluation —
inverse distributes over composition and derived functions are expanded
into their confirmed derivations — so query answers obey exactly the
Section 3.2 truth valuation, negated conjunctions included.
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.errors import DerivationError, SchemaError
from repro.core.derivation import Derivation, Step
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import evaluate_derivations, truth_over
from repro.fdb.logic import Truth
from repro.fdb.values import Value
from repro.obs.hooks import OBS

__all__ = ["Query", "fn"]

_MAX_EXPANSIONS = 64


class Query(abc.ABC):
    """A functional query expression."""

    # -- combinators ----------------------------------------------------------

    def __mul__(self, other: "Query") -> "Query":
        """Composition, the paper's ``o``: ``x:(f o g) = (x:f):g``."""
        if not isinstance(other, Query):
            return NotImplemented
        return _Compose(self, other)

    def __invert__(self) -> "Query":
        """Inverse: ``~f`` is f^-1."""
        return _Inverse(self)

    def o(self, other: "Query") -> "Query":
        """Alias for ``*`` matching the paper's notation."""
        return self * other

    def inverse(self) -> "Query":
        return ~self

    # -- normalization ----------------------------------------------------------

    @abc.abstractmethod
    def _expand(self, db: FunctionalDatabase) -> Iterator[Derivation]:
        """Every base-function derivation denoted by this expression."""

    def derivations(self, db: FunctionalDatabase) -> tuple[Derivation, ...]:
        """Normalize against a database; raises :class:`SchemaError` when
        the expression does not type-check (compositions whose interior
        types do not chain)."""
        expanded = tuple(self._expand(db))
        if len(expanded) > _MAX_EXPANSIONS:
            raise SchemaError(
                "query expands to too many alternative derivations "
                f"({len(expanded)} > {_MAX_EXPANSIONS})"
            )
        return expanded

    # -- evaluation -----------------------------------------------------------------

    def pairs(self, db: FunctionalDatabase) -> dict[tuple[Value, Value], Truth]:
        """The expression's extension: derivable pairs with truths
        (false pairs absent)."""
        if OBS.enabled:
            OBS.inc("fdb.query.pairs")
            with OBS.span("query.pairs", expr=str(self)):
                return self._pairs(db)
        return self._pairs(db)

    def _pairs(self, db: FunctionalDatabase) -> dict[tuple[Value, Value], Truth]:
        return evaluate_derivations(db, self.derivations(db))

    def image(self, db: FunctionalDatabase, x: Value) -> dict[Value, Truth]:
        """Range values reached from ``x``, with truths."""
        if OBS.enabled:
            with OBS.span("query.image", expr=str(self), x=x):
                return self._image(db, x)
        return self._image(db, x)

    def _image(self, db: FunctionalDatabase, x: Value) -> dict[Value, Truth]:
        pairs = evaluate_derivations(db, self.derivations(db), x)
        return {y: truth for (_, y), truth in pairs.items()}

    def preimage(self, db: FunctionalDatabase, y: Value) -> dict[Value, Truth]:
        """Domain values mapping to ``y``, with truths."""
        return (~self).image(db, y)

    def truth(self, db: FunctionalDatabase, x: Value, y: Value) -> Truth:
        """Truth of ``expr(x) = y`` under the Section 3.2 valuation."""
        if OBS.enabled:
            with OBS.span("query.truth", expr=str(self), x=x, y=y):
                return self._truth(db, x, y)
        return self._truth(db, x, y)

    def _truth(self, db: FunctionalDatabase, x: Value, y: Value) -> Truth:
        return truth_over(db, self.derivations(db), x, y)


class _Function(Query):
    def __init__(self, name: str) -> None:
        self.name = name

    def _expand(self, db: FunctionalDatabase) -> Iterator[Derivation]:
        if db.is_base(self.name):
            yield Derivation.of(Step(db.schema[self.name]))
            return
        yield from db.derived(self.name).derivations

    def __str__(self) -> str:
        return self.name


class _Inverse(Query):
    def __init__(self, inner: Query) -> None:
        self.inner = inner

    def _expand(self, db: FunctionalDatabase) -> Iterator[Derivation]:
        for derivation in self.inner._expand(db):
            yield derivation.inverted()

    def __str__(self) -> str:
        return f"({self.inner})^-1"


class _Compose(Query):
    def __init__(self, left: Query, right: Query) -> None:
        self.left = left
        self.right = right

    def _expand(self, db: FunctionalDatabase) -> Iterator[Derivation]:
        rights = tuple(self.right._expand(db))
        for left in self.left._expand(db):
            for right in rights:
                try:
                    yield left.then(right)
                except DerivationError as exc:
                    raise SchemaError(
                        f"composition does not type-check: ({self.left}) o "
                        f"({self.right}): {exc}"
                    ) from exc

    def __str__(self) -> str:
        return f"{self.left} o {self.right}"


def fn(name: str) -> Query:
    """A query referencing one schema function by name."""
    return _Function(name)
