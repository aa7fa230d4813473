"""Selections on relations (the σ of Sections 3, 4 and 6).

A :class:`Selection` restricts a relation to rows satisfying a condition.
The two concrete conditions needed by the paper's algorithms are equality
with a constant on one argument position (:class:`EqualitySelection`) and
equality between two argument positions
(:class:`PositionEqualitySelection`).  Conjunctions are built with
:meth:`Selection.conjoin`.

A selection σ *commutes* with a linear operator ``A`` when ``σA = Aσ``;
the syntactic sufficient condition used by the planner (the selected
positions are 1-persistent in ``A``'s rule) lives in
:mod:`repro.core.separability`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Union, overload

from repro.storage.domain import Domain, PackedRelation
from repro.storage.relation import Relation, Row

#: A test on one packed row (see :class:`~repro.storage.domain.PackedRelation`).
PackedTest = Callable[[int], bool]


def _digit_weight(position: int, arity: int, base: int) -> int:
    """The place value of *position* in a row packed in *base*."""
    return base ** (arity - 1 - position)


class Selection(ABC):
    """A predicate on rows; applying a selection filters a relation."""

    @abstractmethod
    def matches(self, row: Row) -> bool:
        """True if the row satisfies the selection."""

    @abstractmethod
    def positions(self) -> frozenset[int]:
        """Argument positions the selection constrains."""

    def packed_test(self, arity: int, base: int, domain: Domain) -> PackedTest:
        """This selection as a test on rows packed in *base* over *domain*.

        The fallback decodes each row and calls :meth:`matches`;
        :class:`EqualitySelection` compares ids directly.
        """
        values = domain.values_view()
        matches = self.matches
        weights = [_digit_weight(p, arity, base) for p in range(arity)]

        def test(packed: int) -> bool:
            return matches(tuple(values[packed // weight % base]
                                 for weight in weights))
        return test

    @overload
    def apply(self, relation: Relation) -> Relation: ...
    @overload
    def apply(self, relation: PackedRelation) -> PackedRelation: ...
    def apply(self, relation: Union[Relation, PackedRelation]
              ) -> Union[Relation, PackedRelation]:
        """Filter *relation* (value rows or packed ids) to the matching rows."""
        if isinstance(relation, PackedRelation):
            return relation.filter(self.packed_test(
                relation.arity, relation.base, relation.domain))
        return relation.filter(self.matches)

    def conjoin(self, other: "Selection") -> "Selection":
        """The conjunction of two selections."""
        return ConjunctiveSelection((self, other))

    def __call__(self, relation: Relation) -> Relation:
        return self.apply(relation)


@dataclass(frozen=True)
class EqualitySelection(Selection):
    """σ[position = value]: rows whose *position* column equals *value*."""

    position: int
    value: Any

    def matches(self, row: Row) -> bool:
        return row[self.position] == self.value

    def positions(self) -> frozenset[int]:
        return frozenset({self.position})

    def packed_test(self, arity: int, base: int, domain: Domain) -> PackedTest:
        if self.value not in domain:
            # No packed row can hold a value the domain never interned.
            return lambda packed: False
        ident = domain.intern(self.value)
        weight = _digit_weight(self.position, arity, base)
        return lambda packed: packed // weight % base == ident

    def __str__(self) -> str:
        return f"σ[{self.position} = {self.value!r}]"


@dataclass(frozen=True)
class PositionEqualitySelection(Selection):
    """σ[left = right]: rows whose two columns are equal."""

    left: int
    right: int

    def matches(self, row: Row) -> bool:
        return row[self.left] == row[self.right]

    def positions(self) -> frozenset[int]:
        return frozenset({self.left, self.right})

    def __str__(self) -> str:
        return f"σ[{self.left} = {self.right}]"


@dataclass(frozen=True)
class ConjunctiveSelection(Selection):
    """A conjunction of selections."""

    parts: tuple[Selection, ...]

    def matches(self, row: Row) -> bool:
        return all(part.matches(row) for part in self.parts)

    def positions(self) -> frozenset[int]:
        result: frozenset[int] = frozenset()
        for part in self.parts:
            result |= part.positions()
        return result

    def __str__(self) -> str:
        return " ∧ ".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class TrueSelection(Selection):
    """The selection that keeps every row (identity)."""

    def matches(self, row: Row) -> bool:
        return True

    def positions(self) -> frozenset[int]:
        return frozenset()

    def __str__(self) -> str:
        return "σ[true]"
