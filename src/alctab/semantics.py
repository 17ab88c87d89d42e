"""The concept/fact evaluators over finite interpretations, and a bounded
brute-force model search used as an independent satisfiability oracle.
`Interpretation` lives in `alctab.model` and is re-exported here.

Everything here is relativized to an explicit finite domain: Top denotes the
whole domain and negation is the complement within it. Names missing from
the concept or role maps denote the empty extension, so evaluation is total.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_
from typing import Iterator, Optional

from .model import Interpretation
from .record import FrozenRecord, set_field
from .syntax import (
    Abox,
    All,
    And,
    Atom,
    Concept,
    ConceptName,
    Fact,
    Individual,
    Inst,
    Not,
    Or,
    Role,
    RoleName,
    Some,
    Top,
    abox_signature,
    individuals_of,
)

#: Refuse oracle searches whose full enumeration is larger than this.
DEFAULT_ENUMERATION_CEILING = 1 << 24


class OracleCeilingError(RuntimeError):
    """The requested enumeration exceeds the configured ceiling."""


class SignatureError(ValueError):
    """The oracle configuration does not cover the ABox's names."""


_EMPTY: frozenset = frozenset()


def interp_role(interp: Interpretation, role: Role) -> frozenset[tuple[int, int]]:
    """Extension of a role; unmapped names denote the empty relation."""
    return interp.role_map.get(role.name, _EMPTY)


def interp_concept(interp: Interpretation, concept: Concept) -> frozenset[int]:
    """Extension of a concept, a subset of the domain.

    Each distinct subterm is evaluated once, after its children, and kept
    for the rest of the call; so a concept that shares subterms costs its
    number of distinct subterms, not its tree size. Each role's edges are
    grouped by target once, so an ∃ costs the edges into its child's
    members and a ∀ the edges into the other elements. The walk keeps its
    own stack, so any depth that fits in memory works.
    """
    domain = interp.domain
    done: dict[Concept, frozenset[int]] = {}
    sources: dict[Role, dict[int, list[int]]] = {}  # per role, each target's sources
    stack = [concept]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        kind = type(node)
        if kind is And or kind is Or:
            left, right = done.get(node.left), done.get(node.right)
            if left is None or right is None:
                if left is None:
                    stack.append(node.left)
                if right is None:
                    stack.append(node.right)
                continue
            ext = left & right if kind is And else left | right
        elif kind is Not or kind is All or kind is Some:
            members = done.get(node.child)
            if members is None:
                stack.append(node.child)
                continue
            if kind is Not:
                ext = domain - members
            else:
                into = sources.get(node.role)
                if into is None:
                    into = sources[node.role] = {}
                    for x, y in interp_role(interp, node.role):
                        into.setdefault(y, []).append(x)
                if kind is Some:
                    ext = frozenset(x for y in members for x in into.get(y, ()))
                else:  # the elements with no successor outside the members
                    ext = domain.difference(x for y in domain - members for x in into.get(y, ()))
        elif kind is Atom:
            ext = interp.concept_map.get(node.name, _EMPTY)
        else:
            ext = domain if kind is Top else _EMPTY  # Top or Bottom
        done[node] = ext
        stack.pop()
    return done[concept]


def satisfies_fact(interp: Interpretation, fact: Fact) -> bool:
    """Whether the interpretation satisfies a single fact.

    Raises KeyError when an individual of the fact has no assignment; that
    signals a malformed interpretation, not an unsatisfied fact.
    """
    if isinstance(fact, Inst):
        elem = _assigned(interp, fact.subject)
        return elem in interp_concept(interp, fact.concept)
    src = _assigned(interp, fact.source)
    tgt = _assigned(interp, fact.target)
    return (src, tgt) in interp_role(interp, fact.role)


def satisfies_abox(interp: Interpretation, abox: Abox) -> bool:
    """Whether the interpretation satisfies every fact of the ABox."""
    return all(satisfies_fact(interp, f) for f in abox)


def _assigned(interp: Interpretation, ind: Individual) -> int:
    try:
        return interp.individual_map[ind]
    except KeyError:
        raise KeyError(f"no element assigned to individual {ind!r}") from None


class OracleConfig(FrozenRecord):
    """Bounds for the exhaustive search: domain sizes 1..max_domain over the
    given atomic concept and role names."""

    __slots__ = __match_args__ = ("max_domain", "atoms", "roles")
    max_domain: int
    atoms: tuple[ConceptName, ...]
    roles: tuple[RoleName, ...]

    def __init__(
        self, max_domain: int, atoms: tuple[ConceptName, ...] = (), roles: tuple[RoleName, ...] = ()
    ) -> None:
        atoms, roles = tuple(atoms), tuple(roles)
        set_field(self, "max_domain", max_domain)
        set_field(self, "atoms", atoms)
        set_field(self, "roles", roles)
        if max_domain < 1:
            raise ValueError("max_domain must be at least 1")
        if len(set(atoms)) != len(atoms) or len(set(roles)) != len(roles):
            raise ValueError("duplicate names in oracle configuration")


def _size_counts(abox: Abox, cfg: OracleConfig) -> Iterator[int]:
    """The number of candidates of each domain size in turn, computed lazily."""
    na, nr, k = len(cfg.atoms), len(cfg.roles), len(individuals_of(abox))
    return (
        (1 << (na * m)) * (1 << (nr * m * m)) * (m**k)
        for m in range(1, cfg.max_domain + 1)
    )


def enumeration_count(abox: Abox, cfg: OracleConfig) -> int:
    """Number of candidate interpretations the oracle would visit."""
    return sum(_size_counts(abox, cfg))


def oracle_find_model(
    abox: Abox,
    cfg: OracleConfig,
    *,
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> Optional[Interpretation]:
    """Exhaustively search for a model of the ABox within the bounds.

    Enumeration order, which fixes the returned witness: domain sizes
    ascend from 1 to `cfg.max_domain`, the domain of size m being
    {0, ..., m-1}. Within a size, concept maps are enumerated before role
    maps before individual assignments. A concept map is a tuple of
    membership bit-masks, one per atom in `cfg.atoms` order with earlier
    atoms most significant, each mask counting upward (bit e set = element
    e is a member). Role maps run likewise over `cfg.roles`, pair (x, y)
    sitting at bit x*m + y. Individual assignments run over the ABox's
    individuals in first-occurrence order, earlier individuals most
    significant. The first satisfying candidate in this order is returned;
    None means no interpretation within the bounds satisfies the ABox.

    Candidates that provably cannot satisfy the ABox are skipped in bulk,
    which never changes the first witness. Raises SignatureError when the
    configuration does not cover the ABox's names and OracleCeilingError
    when the enumeration would exceed `ceiling`.
    """
    need_atoms, need_roles = abox_signature(abox)
    if not set(need_atoms) <= set(cfg.atoms) or not set(need_roles) <= set(cfg.roles):
        raise SignatureError(
            f"oracle configuration (atoms={cfg.atoms!r}, roles={cfg.roles!r}) does not "
            f"cover the abox signature (atoms={need_atoms!r}, roles={need_roles!r})"
        )
    for total in itertools.accumulate(_size_counts(abox, cfg)):
        if total > ceiling:  # stop counting: a whole count can have millions of digits
            raise OracleCeilingError(f"enumeration exceeds the ceiling of {ceiling} candidates")

    inds = individuals_of(abox)
    index_of = {ind: i for i, ind in enumerate(inds)}
    inst_concepts: list[list[Concept]] = [[] for _ in inds]
    rel_facts: list[tuple[RoleName, int, int]] = []
    for fact in abox:
        if isinstance(fact, Inst):
            inst_concepts[index_of[fact.subject]].append(fact.concept)
        else:
            rel_facts.append((fact.role.name, index_of[fact.source], index_of[fact.target]))
    dependent = _dependent([c for cs in inst_concepts for c in cs])
    free = [node for node, dep in dependent.items() if not dep]
    bound = [node for node, dep in dependent.items() if dep]

    for m in range(1, cfg.max_domain + 1):
        dom_mask = (1 << m) - 1
        for cmasks in itertools.product(range(1 << m), repeat=len(cfg.atoms)):
            cbits = dict(zip(cfg.atoms, cmasks))
            free_masks = _fill_masks(free, {}, cbits, {}, m)
            if not all(_allowed(inst_concepts, free_masks, dom_mask)):
                continue
            for rmasks in itertools.product(range(1 << (m * m)), repeat=len(cfg.roles)):
                rows = {
                    role: [(rmask >> (x * m)) & dom_mask for x in range(m)]
                    for role, rmask in zip(cfg.roles, rmasks)
                }
                masks = _fill_masks(bound, dict(free_masks), cbits, rows, m)
                allowed = _allowed(inst_concepts, masks, dom_mask)
                if not all(allowed):
                    continue
                for assign in itertools.product(range(m), repeat=len(inds)):
                    if all((allowed[i] >> e) & 1 for i, e in enumerate(assign)) and all(
                        (rows[r][assign[s]] >> assign[t]) & 1 for r, s, t in rel_facts
                    ):
                        witness = _build_interpretation(m, cfg, cmasks, rmasks, inds, assign)
                        if not satisfies_abox(witness, abox):
                            raise AssertionError(
                                "oracle enumeration produced a candidate the evaluator rejects"
                            )
                        return witness
    return None


def _dependent(concepts: list[Concept]) -> dict[Concept, bool]:
    """Each distinct subterm of the concepts, after its own subterms, the
    order `interp_concept` evaluates in, mapped to whether it is a
    restriction or has one below it.

    One walk over all the concepts, which it takes as its stack, enters
    each distinct subterm once, so a concept that shares subterms costs
    its number of distinct subterms, not its tree size.
    """
    dependent: dict[Concept, bool] = {}
    stack = concepts
    while stack:
        node = stack[-1]
        if node in dependent:
            stack.pop()
            continue
        kind = type(node)
        if kind is And or kind is Or:
            left, right = dependent.get(node.left), dependent.get(node.right)
            if left is None or right is None:
                if left is None:
                    stack.append(node.left)
                if right is None:
                    stack.append(node.right)
                continue
            dependent[node] = left or right
        elif kind is Not or kind is All or kind is Some:
            child = dependent.get(node.child)
            if child is None:
                stack.append(node.child)
                continue
            dependent[node] = child or kind is not Not
        else:  # an atom, Top or Bottom
            dependent[node] = False
        stack.pop()
    return dependent


def _fill_masks(nodes, masks, cbits, rows, m):
    """Add to `masks` each node's extension as a membership bit-mask over the
    domain 0..m-1, in order; a node's children must be in `masks` or earlier
    in `nodes`."""
    dom_mask = (1 << m) - 1
    for node in nodes:
        kind = type(node)
        if kind is And:
            v = masks[node.left] & masks[node.right]
        elif kind is Atom:
            v = cbits[node.name]
        elif kind is Or:
            v = masks[node.left] | masks[node.right]
        elif kind is Not:
            v = dom_mask & ~masks[node.child]
        elif kind is Some:
            out, members, v = rows[node.role.name], masks[node.child], 0
            for x in range(m):
                if out[x] & members:
                    v |= 1 << x
        elif kind is All:
            out, members, v = rows[node.role.name], masks[node.child], 0
            for x in range(m):
                if not out[x] & ~members:
                    v |= 1 << x
        else:
            v = dom_mask if kind is Top else 0  # Top or Bottom
        masks[node] = v
    return masks


def _allowed(inst_concepts, masks, dom_mask):
    """Per individual, the AND of its concepts' masks; a concept that `masks`
    does not hold allows every element."""
    return [reduce(and_, [masks.get(c, dom_mask) for c in cs], dom_mask) for cs in inst_concepts]


def _build_interpretation(m, cfg, cmasks, rmasks, inds, assign) -> Interpretation:
    concept_map = {
        atom: frozenset(e for e in range(m) if (mask >> e) & 1)
        for atom, mask in zip(cfg.atoms, cmasks)
    }
    role_map = {
        role: frozenset(
            (x, y) for x in range(m) for y in range(m) if (mask >> (x * m + y)) & 1
        )
        for role, mask in zip(cfg.roles, rmasks)
    }
    return Interpretation(
        domain=frozenset(range(m)),
        concept_map=concept_map,
        role_map=role_map,
        individual_map=dict(zip(inds, assign)),
    )
