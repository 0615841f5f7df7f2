"""The immutable value classes: construction, equality, hashing, repr, copies."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import relcalc
from relcalc import (
    CanonicalDecomposition,
    ClassificationSummary,
    ConsequenceEntry,
    DecompositionTree,
    Domain,
    ElementaryRule,
    Polynomial,
    Relation,
    SimplicialComplex,
    Trajectory,
    TrajectoryReport,
)
from relcalc.relation import Value

AB = Domain(("a", "b"), 2)
REL = Relation(AB, 3)
REL_TEXT = "Relation(domain=Domain(points=('a', 'b'), q=2), bits=3)"
FACE = Domain(("a",), 2)

# (class, constructor fields in order, repr)
CASES = [
    (Domain, {"points": ("a", "b"), "q": 2}, "Domain(points=('a', 'b'), q=2)"),
    (Relation, {"domain": AB, "bits": 3}, REL_TEXT),
    (Polynomial, {"p": 2, "variables": ("a",), "terms": (((1,), 1),)},
     "Polynomial(p=2, variables=('a',), terms=(((1,), 1),))"),
    (ConsequenceEntry, {"face": FACE, "relation": Relation(FACE, 1)},
     "ConsequenceEntry(face=Domain(points=('a',), q=2), "
     "relation=Relation(domain=Domain(points=('a',), q=2), bits=1))"),
    (CanonicalDecomposition, {"source": REL, "consequences": (), "principal_factor": REL},
     f"CanonicalDecomposition(source={REL_TEXT}, consequences=(), principal_factor={REL_TEXT})"),
    (DecompositionTree,
     {"relation": REL, "status": "prime", "children": (), "principal_factor": None},
     f"DecompositionTree(relation={REL_TEXT}, status='prime', children=(), "
     "principal_factor=None)"),
    (SimplicialComplex, {"points": ("a", "b"), "maximal_simplices": frozenset([frozenset("a")])},
     "SimplicialComplex(points=('a', 'b'), maximal_simplices=frozenset({frozenset({'a'})}))"),
    (ElementaryRule, {"number": 3, "relation": REL},
     f"ElementaryRule(number=3, relation={REL_TEXT})"),
    (Trajectory, {"rule": 90, "width": 2, "steps": 0, "rows": ((0, 1),)},
     "Trajectory(rule=90, width=2, steps=0, rows=((0, 1),))"),
    (ClassificationSummary, {"statuses": ("prime",), "consequences_1101": ((0, (("p", "1101"),)),)},
     "ClassificationSummary(statuses=('prime',), consequences_1101=((0, (('p', '1101'),)),))"),
    (TrajectoryReport, {"rule_violations": ((1, 0),), "consequence_violations": ((("p", "s"), 1, 0),)},
     "TrajectoryReport(rule_violations=((1, 0),), consequence_violations=((('p', 's'), 1, 0),))"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class(cls, fields, text):
    values = tuple(fields.values())
    obj = cls(*values)
    assert cls(**fields) == obj
    for name, value in fields.items():
        assert getattr(obj, name) == value
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)

    assert obj == cls(*copy.deepcopy(values))
    assert not obj != cls(*values)
    twin = type("Twin", (cls,), {})(*values)  # the same fields, another class
    assert obj != twin and twin != obj
    assert obj != values
    assert hash(obj) == hash(values)
    assert repr(obj) == text

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1

    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj
        assert repr(clone) == text


def test_cases_cover_every_value_class():
    found, pending = set(), [Value]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("relcalc."):
                found.add(sub)
    assert found == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_constructor_refuses_unknown_and_repeated_fields(cls, fields, text):
    values = tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*values, extra=None)
    name = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values, **{name: values[0]})
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == cls(*values)


def test_copies_keep_derived_state():
    domain = pickle.loads(pickle.dumps(AB))
    assert (domain.size, domain.index("b")) == (4, 1)
    assert copy.deepcopy(AB).face(["b"]) == Domain(("b",), 2)


def test_import_skips_dataclasses_and_inspect():
    # both cost start-up time on every command line call
    src = os.path.dirname(os.path.dirname(relcalc.__file__))
    probe = ("import sys, relcalc, relcalc.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert result.stdout == "[]\n"
