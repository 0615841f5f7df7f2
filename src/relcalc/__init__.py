"""Calculus of discrete relations on finite point sets.

Relations are subsets of q-state hypercubes stored as packed bit tables.
The package provides the set algebra (extension, projection, base
relation), decomposition into proper consequences and principal factors,
prime/reducible classification, the simplicial complex a relation
induces, a GF(p) polynomial bridge, and a cellular automata front end.
"""

from .automata import (
    ABSORBING_TABLE,
    LIFE_POINTS,
    MIRROR_TABLE,
    QUOTED_1101_RULES,
    RULE_POINTS,
    ClassificationSummary,
    ElementaryRule,
    Trajectory,
    TrajectoryReport,
    absorbing_consequences,
    check_trajectory,
    classify_all_rules,
    closed_form,
    life_relation,
    random_row,
    rule_function,
    simulate,
    wolfram_relation,
)
from .errors import (
    ContractError,
    DegenerateError,
    DomainError,
    FormatError,
    RelcalcError,
    UnsupportedError,
)
from .gfpoly import (
    Polynomial,
    add,
    constant,
    elementary_symmetric,
    eval_polynomial,
    grouped_string,
    multiply,
    parse_polynomial,
    polynomial,
    polynomial_to_relation,
    polynomial_to_string,
    relation_to_polynomial,
    sigma_polynomial,
    variable,
    zero,
)
from .relation import (
    MAX_TABLE_CELLS,
    Domain,
    Relation,
    cardinality,
    complement,
    contains,
    cylinder,
    decode_point,
    digit_planes,
    empty_relation,
    encode_point,
    extend,
    intersect,
    is_empty,
    is_trivial,
    make_relation,
    members,
    permute_points,
    project,
    relation_from_hex,
    relation_from_members,
    rename_points,
    trivial_relation,
    union,
)
from .relfile import (
    format_relation,
    parse_relation,
    parse_relations,
    read_relation,
    read_relations,
    write_relation,
)
from .structure import (
    STATUS_EMPTY,
    STATUS_IRREDUCIBLE,
    STATUS_PRIME,
    STATUS_REDUCIBLE,
    STATUS_TRIVIAL,
    CanonicalDecomposition,
    ConsequenceEntry,
    DecompositionTree,
    SimplicialComplex,
    base_relation,
    canonical_decomposition,
    count_consequences,
    decomposition_tree,
    equivalent_under,
    group_by_symmetry,
    impose_topology,
    is_prime,
    is_reducible,
    principal_factor,
    proper_consequences,
    proper_faces,
)

__version__ = "0.1.0"
