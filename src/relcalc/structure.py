"""Compatibility and decomposition calculus for relations.

Base relations, proper consequences, principal factors, the canonical
decomposition, prime/reducible classification, recursive decomposition
trees, and the simplicial complex a relation induces on its points.
"""

import itertools
from dataclasses import dataclass

from .errors import ContractError, DegenerateError, DomainError
from .relation import (
    Domain,
    Relation,
    cardinality,
    complement,
    cylinder,
    extend,
    intersect,
    is_empty,
    is_trivial,
    permute_points,
    project,
    rename_points,
    trivial_relation,
    union,
)

STATUS_EMPTY = "empty"
STATUS_TRIVIAL = "trivial"
STATUS_PRIME = "prime"
STATUS_IRREDUCIBLE = "irreducible"
STATUS_REDUCIBLE = "reducible"


@dataclass(frozen=True)
class ConsequenceEntry:
    """A nontrivial relation on a proper face whose cylinder contains the source."""

    face: Domain
    relation: Relation


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Codimension-1 consequences plus the principal factor that completes them."""

    source: Relation
    consequences: tuple[ConsequenceEntry, ...]
    principal_factor: Relation

    @property
    def status(self):
        """Prime without consequences, reducible if the factor is trivial, else irreducible."""
        if not self.consequences:
            return STATUS_PRIME
        if is_trivial(self.principal_factor):
            return STATUS_REDUCIBLE
        return STATUS_IRREDUCIBLE


@dataclass(frozen=True)
class DecompositionTree:
    """Recursive decomposition down to prime leaves.

    Children are the distinct nontrivial projections onto codimension-1
    faces, shared between parents when faces coincide.  The factor is None
    for prime and empty nodes (nothing to complete).
    """

    relation: Relation
    status: str
    children: tuple["DecompositionTree", ...]
    principal_factor: Relation | None

    @property
    def face(self):
        return self.relation.domain.points

    def walk(self):
        """Yield each distinct node once, parents before children."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    def leaves(self):
        return [n for n in self.walk() if not n.children]


@dataclass(frozen=True)
class SimplicialComplex:
    """Point set plus the inclusion-maximal simplices carrying constraints."""

    points: tuple[str, ...]
    maximal_simplices: frozenset[frozenset[str]]

    def sorted_simplices(self):
        """Simplices ordered by point position for stable display."""
        order = {p: i for i, p in enumerate(self.points)}
        return sorted(
            (tuple(sorted(s, key=order.get)) for s in self.maximal_simplices),
            key=lambda t: [order[p] for p in t])


def proper_faces(domain, codim=None):
    """Nonempty proper subdomains, point order preserved.

    With codim=1 only the faces obtained by dropping a single point,
    otherwise every size from k-1 down to 1, larger faces first.
    """
    k = domain.k
    if codim is not None:
        sizes = [k - codim] if 0 < k - codim < k else []
    else:
        sizes = range(k - 1, 0, -1)
    for size in sizes:
        for pts in itertools.combinations(domain.points, size):
            yield Domain(pts, domain.q)


def base_relation(relations):
    """Intersection of cylinders over the union of the input domains.

    Point order of the result follows first appearance across the inputs.
    An empty result means the relations are incompatible.
    """
    relations = list(relations)
    if not relations:
        raise DomainError("need at least one relation")
    q = relations[0].domain.q
    points = []
    for rel in relations:
        if rel.domain.q != q:
            raise DomainError(f"state counts differ: {q} vs {rel.domain.q}")
        for p in rel.domain.points:
            if p not in points:
                points.append(p)
    superdomain = Domain(tuple(points), q)
    result = trivial_relation(superdomain)
    for rel in relations:
        result = intersect(result, extend(rel, superdomain))
    return result


def proper_consequences(rel, codim=None):
    """All nontrivial projections onto proper faces.

    codim=1 restricts to the faces used by the canonical decomposition.
    """
    if is_empty(rel):
        raise DegenerateError("consequences of the empty relation are uninformative")
    return _consequences(rel, codim)[0]


def principal_factor(rel, consequences):
    """The factor completing a consequence list to an exact decomposition.

    Returns rel united with the complement of the intersection of the
    consequences' cylinders; intersecting back with that intersection
    recovers rel exactly.
    """
    joint = trivial_relation(rel.domain)
    for entry in consequences:
        ext = extend(entry.relation, rel.domain)
        if ext.bits & rel.bits != rel.bits:
            raise ContractError(
                f"relation on face {entry.face.points} is not a consequence: "
                "its cylinder does not contain the source")
        joint = intersect(joint, ext)
    return union(rel, complement(joint))


def _consequences(rel, codim):
    """Nontrivial projections onto proper faces and the intersection of their cylinders.

    Each cylinder is built on rel's own table; a projection is trivial iff
    its cylinder is full, so only the nontrivial ones are compressed to
    their face.  The joint cylinder comes back as a relation on rel's domain.
    """
    full = trivial_relation(rel.domain).bits
    entries, joint = [], full
    for face in proper_faces(rel.domain, codim):
        cyl = cylinder(rel, face).bits
        if cyl != full:
            entries.append(ConsequenceEntry(face, project(rel, face)))
            joint &= cyl
    return entries, Relation(rel.domain, joint)


def canonical_decomposition(rel):
    """Codimension-1 consequences and the principal factor."""
    if is_empty(rel):
        raise DegenerateError("empty relation has no canonical decomposition")
    if is_trivial(rel):
        raise DegenerateError("trivial relation has no canonical decomposition")
    consequences, joint = _consequences(rel, codim=1)
    return CanonicalDecomposition(rel, tuple(consequences), union(rel, complement(joint)))


def is_reducible(rel):
    """True iff rel is exactly the intersection of its consequences' cylinders.

    Equivalent to the principal factor being trivial.
    """
    if is_empty(rel) or is_trivial(rel):
        raise DegenerateError("reducibility is defined for nonempty nontrivial relations")
    return canonical_decomposition(rel).status == STATUS_REDUCIBLE


def is_prime(rel):
    """True iff every projection onto a proper face is trivial.

    Checking codimension 1 suffices: any deeper projection factors
    through a codimension-1 face.
    """
    if is_empty(rel) or is_trivial(rel):
        raise DegenerateError("primality is defined for nonempty nontrivial relations")
    return canonical_decomposition(rel).status == STATUS_PRIME


def decomposition_tree(rel):
    """Recursive canonical decomposition with one node per face.

    Projections are path independent, so each face's node is built once
    and shared; the children tuples therefore form a DAG.
    """
    memo = {}

    def build(r):
        key = frozenset(r.domain.points)
        if key in memo:
            return memo[key]
        if is_empty(r):
            node = DecompositionTree(r, STATUS_EMPTY, (), None)
        elif is_trivial(r):
            node = DecompositionTree(r, STATUS_TRIVIAL, (), r)
        else:
            dec = canonical_decomposition(r)
            children = tuple(build(e.relation) for e in dec.consequences)
            factor = None if dec.status == STATUS_PRIME else dec.principal_factor
            node = DecompositionTree(r, dec.status, children, factor)
        memo[key] = node
        return node

    return build(rel)


def impose_topology(rel):
    """Simplicial complex whose maximal simplices carry rel's irreducible parts.

    Reducible nodes dissolve into their consequences; prime and
    irreducible nodes contribute their own face.  A trivial relation
    constrains nothing, so only isolated vertices remain.
    """
    if is_empty(rel):
        raise DegenerateError("empty relation carries no topology")
    tree = decomposition_tree(rel)
    faces = set()

    def collect(node):
        if node.status == STATUS_REDUCIBLE:
            for child in node.children:
                collect(child)
        elif node.status in (STATUS_PRIME, STATUS_IRREDUCIBLE):
            faces.add(frozenset(node.relation.domain.points))

    collect(tree)
    maximal = {f for f in faces if not any(f < g for g in faces)}
    return SimplicialComplex(rel.domain.points, frozenset(maximal))


def count_consequences(rel):
    """Total number of consequences on the full domain: 2^(cells - members)."""
    return 2 ** (rel.size - cardinality(rel))


def equivalent_under(entry_a, entry_b, symmetric_points):
    """Test whether two consequence entries match up to permuting the symmetric points.

    Points outside the symmetric set must coincide; symmetric points may
    be relabeled by any bijection between the two faces' symmetric parts.
    """
    sym = set(symmetric_points)
    pts_a, pts_b = set(entry_a.face.points), set(entry_b.face.points)
    if pts_a - sym != pts_b - sym:
        return False
    sym_a = sorted(pts_a & sym)
    sym_b = sorted(pts_b & sym)
    if len(sym_a) != len(sym_b):
        return False
    if cardinality(entry_a.relation) != cardinality(entry_b.relation):
        return False
    target_order = entry_b.face.points
    for image in itertools.permutations(sym_b):
        mapping = dict(zip(sym_a, image))
        renamed = rename_points(entry_a.relation, mapping)
        if permute_points(renamed, target_order).bits == entry_b.relation.bits:
            return True
    return False


def group_by_symmetry(entries, symmetric_points):
    """Partition consequence entries into classes equivalent up to the symmetry."""
    classes = []
    for entry in entries:
        for cls in classes:
            if equivalent_under(entry, cls[0], symmetric_points):
                cls.append(entry)
                break
        else:
            classes.append([entry])
    return classes
