"""The ten immutable value classes on `values.FrozenValue`: equality and
hash of the field tuple, the repr, refused assignment and deletion,
keyword construction, and `Cone.det` outside all three."""

import ast
import copy
from pathlib import Path
import pickle

import pytest

from logfan.cohomology import Space, SplitBundle, Summand
from logfan.fans import Cone, DivisorLabel, Fan
from logfan.kernels import Atom, KernelExpr
from logfan.logproduct import LogPair, LogProductSpace
from logfan.values import FrozenValue
from logfan.verify import VerifyCase, VerifyReport

P1 = LogPair("P1:pt")
SQUARE = ((0, 1), (1, 0))  # sorted, as a Cone keeps its rays
CASE = VerifyCase("c1", "a claim", 1, 1)
ONE = Fan(1, [Cone(((1,),))])

# (class, field names, field values, repr)
VALUES = [
    (SplitBundle, ("terms",), (((Summand(1), 2),),),
     "SplitBundle(terms=((Summand(twist=1, shift=0), 2),))"),
    (Space, ("kind", "param"), ("Pn", 2), "Space(kind='Pn', param=2)"),
    (LogPair, ("kind", "param"), ("Pn:H", 2),
     "LogPair(kind='Pn:H', param=2)"),
    (LogProductSpace, ("factors", "fan", "stratum_ray", "strict_transforms"),
     ((P1,), ONE, (), ()),
     "LogProductSpace(factors=(LogPair(kind='P1:pt', param=0),), "
     "fan=Fan(rank=1, cones=(Cone(rays=((1,),)),), labels=()), "
     "stratum_ray=(), strict_transforms=())"),
    (DivisorLabel, ("kind", "arg"), ("boundary", 0),
     "DivisorLabel(kind='boundary', arg=0)"),
    (Cone, ("rays",), (SQUARE,), "Cone(rays=((0, 1), (1, 0)))"),
    (Fan, ("rank", "cones", "labels"), (2, (Cone(SQUARE),), ()),
     "Fan(rank=2, cones=(Cone(rays=((0, 1), (1, 0))),), labels=())"),
    (KernelExpr, ("source", "target", "terms"),
     (P1, P1, ((Atom("diag", 0, 0, 0), 1),)),
     "KernelExpr(source=LogPair(kind='P1:pt', param=0), "
     "target=LogPair(kind='P1:pt', param=0), "
     "terms=((Atom(kind='diag', degree=0, twist=0, shift=0), 1),))"),
    (VerifyCase, ("case_id", "claim", "expected", "actual"),
     ("c1", "a claim", 1, 1),
     "VerifyCase(case_id='c1', claim='a claim', expected=1, actual=1)"),
    (VerifyReport, ("cases",), ((CASE,),),
     "VerifyReport(cases=(VerifyCase(case_id='c1', claim='a claim', "
     "expected=1, actual=1),))"),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.mark.parametrize("cls,names,fields,text", VALUES, ids=IDS)
class TestValue:
    def test_equality_and_hash_read_the_field_tuple(self, cls, names,
                                                    fields, text):
        value = cls(*fields)
        assert tuple(getattr(value, n) for n in names) == fields
        assert value == cls(*fields) and not value != cls(*fields)
        assert hash(value) == hash(fields)

    def test_another_class_with_equal_fields_differs(self, cls, names,
                                                     fields, text):
        def set_fields(self, *values):
            for name, value in zip(names, values):
                object.__setattr__(self, name, value)

        twin = type("Twin", (FrozenValue,), {
            "__slots__": names, "__init__": set_fields})(*fields)
        assert tuple(getattr(twin, n) for n in names) == fields
        assert cls(*fields) != twin and twin != cls(*fields)
        assert cls.__eq__(cls(*fields), fields) is NotImplemented

    def test_repr(self, cls, names, fields, text):
        assert repr(cls(*fields)) == text

    def test_assignment_and_deletion_raise(self, cls, names, fields, text):
        value = cls(*fields)
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, n) for n in names) == fields

    def test_keyword_construction(self, cls, names, fields, text):
        assert cls(**dict(zip(names, fields))) == cls(*fields)

    def test_copy_and_pickle_round_trip(self, cls, names, fields, text):
        value = cls(*fields)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value
            assert hash(twin) == hash(value)


def test_defaults():
    assert LogPair("P1:pt") == LogPair(kind="P1:pt", param=0)
    assert Fan(2, (Cone(SQUARE),)).labels == ()


def test_cone_det_is_outside_equality_hash_and_repr():
    checked, kept = Cone(SQUARE), Cone._known_valid(SQUARE, 5)
    assert (checked.det, kept.det) == (1, 5)
    assert checked == kept and hash(checked) == hash(kept)
    assert repr(checked) == repr(kept) == "Cone(rays=((0, 1), (1, 0)))"
    assert pickle.loads(pickle.dumps(kept)).det == 5
    with pytest.raises(AttributeError):
        checked.det = 2


def test_every_value_class_is_a_frozen_value():
    assert {cls for cls, *_ in VALUES} == {
        cls for cls in FrozenValue.__subclasses__() if cls.__name__ != "Twin"}


def test_no_module_imports_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src" / "logfan"
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name
