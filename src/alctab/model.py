"""Finite interpretations: the models a satisfiable verdict carries.

The search reads its model off an open branch into an `Interpretation`,
and the renderer prints one; neither needs the evaluators or the oracle of
`alctab.semantics`, which re-exports the class.
"""

from __future__ import annotations

from typing import Mapping

from .record import FrozenRecord, set_field
from .syntax import ConceptName, Individual, RoleName


class Interpretation(FrozenRecord):
    """An explicit finite interpretation.

    `domain` is a non-empty set of element ids; `concept_map` and `role_map`
    give the extensions of atomic concepts and roles; `individual_map`
    assigns individuals to elements. All maps are normalized to plain dicts
    with frozenset values at construction and must not be mutated afterwards.
    """

    __slots__ = __match_args__ = ("domain", "concept_map", "role_map", "individual_map")
    domain: frozenset[int]
    concept_map: Mapping[ConceptName, frozenset[int]]
    role_map: Mapping[RoleName, frozenset[tuple[int, int]]]
    individual_map: Mapping[Individual, int]

    def __init__(
        self,
        domain: frozenset[int],
        concept_map: Mapping[ConceptName, frozenset[int]],
        role_map: Mapping[RoleName, frozenset[tuple[int, int]]],
        individual_map: Mapping[Individual, int],
    ) -> None:
        domain = frozenset(domain)
        concept_map = {name: frozenset(ext) for name, ext in concept_map.items()}
        role_map = {name: frozenset(pairs) for name, pairs in role_map.items()}
        individual_map = dict(individual_map)
        set_field(self, "domain", domain)
        set_field(self, "concept_map", concept_map)
        set_field(self, "role_map", role_map)
        set_field(self, "individual_map", individual_map)
        if not domain:
            raise ValueError("interpretation domain must be non-empty")
        for ext in concept_map.values():
            if not ext <= domain:
                raise ValueError("concept extension outside the domain")
        for pairs in role_map.values():
            for x, y in pairs:
                if x not in domain or y not in domain:
                    raise ValueError("role extension outside the domain")
        for elem in individual_map.values():
            if elem not in domain:
                raise ValueError("individual assigned outside the domain")
