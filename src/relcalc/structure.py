"""Compatibility and decomposition calculus for relations.

Base relations, proper consequences, principal factors, the canonical
decomposition, prime/reducible classification, recursive decomposition
trees, and the simplicial complex a relation induces on its points.
"""

import itertools

from .errors import ContractError, DegenerateError, DomainError
from .relation import (
    Domain,
    Relation,
    Value,
    _arrange,
    cardinality,
    complement,
    cylinder,
    extend,
    intersect,
    is_empty,
    is_trivial,
    project,
    trivial_relation,
    union,
)

STATUS_EMPTY = "empty"
STATUS_TRIVIAL = "trivial"
STATUS_PRIME = "prime"
STATUS_IRREDUCIBLE = "irreducible"
STATUS_REDUCIBLE = "reducible"


class ConsequenceEntry(Value):
    """A nontrivial relation on a proper face whose cylinder contains the source."""

    _fields = ("face", "relation")


class CanonicalDecomposition(Value):
    """Codimension-1 consequences plus the principal factor that completes them."""

    _fields = ("source", "consequences", "principal_factor")

    @property
    def status(self):
        """Prime without consequences, reducible if the factor is trivial, else irreducible."""
        if not self.consequences:
            return STATUS_PRIME
        if is_trivial(self.principal_factor):
            return STATUS_REDUCIBLE
        return STATUS_IRREDUCIBLE


class DecompositionTree(Value):
    """Recursive decomposition down to prime leaves.

    Children are the distinct nontrivial projections onto codimension-1
    faces, shared between parents when faces coincide.  The factor is None
    for prime and empty nodes (nothing to complete).

    The children form a DAG, so hashing and equality visit each node once
    rather than each root-to-node path: the hash is kept from construction,
    and == compares each pair of nodes once.  Copies and pickles rebuild
    through the constructor, so the kept hash never outlives its process.
    """

    _fields = ("relation", "status", "children", "principal_factor")

    def __init__(self, *values, **named):
        Value.__init__(self, *values, **named)
        self._set("_hash", hash(self._key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen, pairs = set(), [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if (a.__class__ is not b.__class__ or a._hash != b._hash
                    or len(a.children) != len(b.children)
                    or (a.relation, a.status, a.principal_factor)
                    != (b.relation, b.status, b.principal_factor)):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __reduce__(self):
        return self.__class__, self._key

    @property
    def face(self):
        return self.relation.domain.points

    def walk(self):
        """Yield each distinct node once: the root first, every parent before each child.

        The order is the reverse post-order of one depth-first pass.
        """
        order, seen, stack = [], {id(self)}, [(self, iter(self.children))]
        while stack:
            for child in stack[-1][1]:
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append((child, iter(child.children)))
                    break
            else:
                order.append(stack.pop()[0])
        yield from reversed(order)

    def leaves(self):
        return [n for n in self.walk() if not n.children]


class SimplicialComplex(Value):
    """Point names plus the inclusion-maximal simplices (frozensets) carrying constraints."""

    _fields = ("points", "maximal_simplices")

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


def decomposition_tree(rel, _root=None):
    """Recursive canonical decomposition with one node per face.

    Projections are path independent, so each face's node is built once
    and shared; the children tuples therefore form a DAG.  _root, rel's
    canonical decomposition when the caller already has it, spares the
    root's codimension-1 pass.
    """
    if _root is not None and _root.source != rel:
        raise ContractError("_root is not the canonical decomposition of rel")
    return _tree_node(rel, {}, _root)


def _tree_node(r, memo, dec=None):
    """The node of r, built once per face and kept in memo by its point set.

    dec, when given, is r's canonical decomposition.

    A module-level function rather than a closure: a recursive closure
    holds itself through its own cell, a cycle that would keep memo and
    every node's relation alive until the cyclic collector runs.
    """
    key = frozenset(r.domain.points)
    if key in memo:
        return memo[key]
    if is_empty(r):
        node = DecompositionTree(r, STATUS_EMPTY, (), None)
    elif is_trivial(r):
        node = DecompositionTree(r, STATUS_TRIVIAL, (), r)
    else:
        if dec is None:
            dec = canonical_decomposition(r)
        children = tuple(_tree_node(e.relation, memo) for e in dec.consequences)
        factor = None if dec.status == STATUS_PRIME else dec.principal_factor
        node = DecompositionTree(r, dec.status, children, factor)
    memo[key] = node
    return node


def impose_topology(rel, _root=None):
    """Simplicial complex whose maximal simplices carry rel's irreducible parts.

    The simplices are the maximal faces among the prime and irreducible
    nodes of one walk of the tree: reducible nodes dissolve into their
    consequences, and a node below a prime or irreducible one lies strictly
    inside its face, so it is never maximal.  A trivial relation constrains
    nothing, so only isolated vertices remain.  _root is passed on to
    decomposition_tree.
    """
    if is_empty(rel):
        raise DegenerateError("empty relation carries no topology")
    faces = {frozenset(node.face) for node in decomposition_tree(rel, _root).walk()
             if node.status in (STATUS_PRIME, STATUS_IRREDUCIBLE)}
    maximal = {f for f in faces if not any(f < g for g in faces)}
    return SimplicialComplex(rel.domain.points, frozenset(maximal))


def count_consequences(rel):
    """Total number of consequences on the full domain: 2^(cells - members)."""
    return 2 ** (rel.size - cardinality(rel))


def equivalent_under(entry_a, entry_b, symmetric_points):
    """Test whether two consequence entries match up to permuting the symmetric points.

    Points outside the symmetric set must coincide; symmetric points may
    be relabeled by any bijection between the two faces' symmetric parts.
    One digit arrangement per bijection; different state counts never match.
    """
    sym = set(symmetric_points)
    rel_a, rel_b = entry_a.relation, entry_b.relation
    dom_a, dom_b = rel_a.domain, rel_b.domain
    if (dom_a.q != dom_b.q or set(dom_a.points) - sym != set(dom_b.points) - sym
            or dom_a.k != dom_b.k or cardinality(rel_a) != cardinality(rel_b)):
        return False
    place = {p: i for i, p in enumerate(dom_b.points)}
    fixed = {t: place[p] for t, p in enumerate(dom_a.points) if p not in sym}
    moving = [dom_a.index(p) for p in sorted(sym.intersection(dom_a.points))]
    images = itertools.permutations(place[p] for p in sorted(sym.intersection(dom_b.points)))
    return any(_arrange(rel_a.bits, dom_a.q, dom_a.k, fixed | dict(zip(moving, image)))
               == rel_b.bits for image in images)


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
