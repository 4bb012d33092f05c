"""The record base behind every value type: construction, equality,
hashing, immutability and repr."""

import pytest

from coxfan.cox import BaseRingFlags
from coxfan.groeb import ModuleOrder
from coxfan.intlat import AbelianGroup, GroupElement
from coxfan.polyfan import Cone
from coxfan.schemeprops import PropertyReport, Verdict


def test_equal_values_hash_equal_and_share_a_dict_slot():
    a = GroupElement((1,), (2, 3))
    b = AbelianGroup(2, (2,)).element((3,), (2, 3))
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert hash(a) == hash(((1,), (2, 3)))  # the frozen-dataclass hash
    c, d = Cone(2, ((0, 1), (1, 0))), Cone(2, ((0, 1), (1, 0)))
    assert c == d and {c: 1}[d] == 1
    assert c != Cone(2, ((1, 0),))
    # Value equality holds within a class only.
    assert GroupElement((), ()) != AbelianGroup(0, ()) != ((), ())


def test_a_single_field_record_hashes_as_a_one_tuple():
    assert hash(ModuleOrder(len)) == hash((len,))
    assert ModuleOrder(len) == ModuleOrder(key=len) != ModuleOrder(abs)


def test_assigning_or_deleting_an_attribute_raises():
    x = GroupElement((), (1,))
    with pytest.raises(AttributeError):
        x.free_part = (2,)
    with pytest.raises(AttributeError):
        x.other = 1
    with pytest.raises(AttributeError):
        del x.free_part
    assert x.free_part == (1,)
    assert not hasattr(x, "__dict__")


def test_repr_is_the_dataclass_repr():
    assert repr(GroupElement((), (1,))) == "GroupElement(torsion_part=(), free_part=(1,))"
    assert repr(Verdict("HOLDS", "r")) == "Verdict(status='HOLDS', rule='r', condition='')"
    assert repr(PropertyReport({"x": Verdict("HOLDS", "r")})) == (
        "PropertyReport(verdicts={'x': Verdict(status='HOLDS', rule='r', condition='')})"
    )


def test_construction_by_keyword_with_defaults():
    assert ModuleOrder(key=len).key is len
    flags = BaseRingFlags(field=True)
    assert flags.field and not flags.zero
    assert flags == BaseRingFlags(True, False, False, False, False)
    assert Verdict("FAILS", "r", condition="c") == Verdict(rule="r", status="FAILS", condition="c")
    with pytest.raises(TypeError):
        Verdict("HOLDS")
    with pytest.raises(TypeError):
        Verdict("HOLDS", "r", "", "extra")
    with pytest.raises(TypeError):
        Verdict("HOLDS", "r", status="FAILS")
    with pytest.raises(TypeError):
        BaseRingFlags(fields=True)


def test_post_init_rejects_bad_shapes_and_torsion_chains():
    with pytest.raises(ValueError, match=">= 2"):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError, match="divisibility chain"):
        AbelianGroup(1, (2, 3))
    assert AbelianGroup(1, (2, 4)).order() == "infinite"
