"""The kernel's records are plain slotted classes on one frozen base:
each keeps its constructor, its validation and its messages, its
equality and hash, and refuses to change."""

import pytest

from lmo_kernel import liews, rootsys
from lmo_kernel.diagrams import (
    LEG, CanonicalForm, JacobiDiagram, StructuralError)
from lmo_kernel.pipeline import (
    CheckResult, ComparisonReport, InputError, SurgeryInput, compare)

_THETA = (((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1)))
_STRUT = (0, 2, ((LEG, LEG),))

# each record class, with a builder that makes a new instance with
# the same fields on every call
_FROZEN = {
    "JacobiDiagram": lambda: JacobiDiagram(2, 0, _THETA),
    "CanonicalForm": lambda: CanonicalForm((_STRUT,)),
    "LieAlgebraData": lambda: liews.build_sl.__wrapped__(2),
    "RootSystem": lambda: rootsys.build_root_system.__wrapped__("A1"),
    "SurgeryInput": lambda: SurgeryInput("unknot", 2),
    "ComparisonReport": lambda: compare(SurgeryInput("unknot", 2), "A1", 2),
    "CheckResult": lambda: CheckResult("a", True, "d"),
}


@pytest.mark.parametrize("name", _FROZEN)
def test_a_frozen_record_refuses_to_change(name):
    record = _FROZEN[name]()
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", _FROZEN)
def test_frozen_records_with_equal_fields_are_equal(name):
    a, b = _FROZEN[name](), _FROZEN[name]()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, f) for f in type(a).__slots__)
    if name in ("LieAlgebraData", "ComparisonReport"):
        # ``f_low`` is a dict and a series has no hash, so neither record
        # has one
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1


def test_records_with_different_fields_differ():
    assert JacobiDiagram(2, 0, _THETA) != JacobiDiagram(0, 2, (
        ((0, 0), (1, 0)),))
    assert SurgeryInput("unknot", 2) != SurgeryInput("unknot", -2)
    assert CheckResult("a", True) != CheckResult("a", False)


def test_a_canonical_form_compares_and_hashes_its_components_alone():
    form = CanonicalForm((_STRUT, _STRUT))
    assert (form.t, form.m) == (0, 4)
    assert hash(form) == hash((form.components,))
    assert form == CanonicalForm(tuple(list(form.components)))
    assert form != CanonicalForm((_STRUT,))


def test_constructors_keep_their_signatures():
    assert SurgeryInput("k.json", -3) == SurgeryInput(
        knot="k.json", framing=-3, declared_valid_degree=None)
    rs = rootsys.build_root_system("A1")
    assert rootsys.RootSystem(
        label=rs.label, rank=rs.rank, gram=rs.gram, pos_roots=rs.pos_roots,
        rho=rs.rho, weyl=rs.weyl) == rs
    assert CheckResult("x", True).detail == ""
    diagram = JacobiDiagram(t=2, m=0, edges=_THETA[::-1])
    assert diagram.edges == _THETA  # edges are stored sorted


def test_validation_keeps_its_messages():
    with pytest.raises(InputError, match="^framing 0 does not give a "
                       "rational homology sphere$"):
        SurgeryInput("unknot", 0)
    with pytest.raises(InputError, match="valid degree must be >= 0, "
                       "got -1$"):
        SurgeryInput("unknot", 2, declared_valid_degree=-1)
    with pytest.raises(StructuralError, match=r"^port \(0, 0\) used twice$"):
        JacobiDiagram(0, 2, (((0, 0), (1, 0)), ((0, 0), (1, 0))))
    with pytest.raises(StructuralError, match="^t must be >= 0, got -1$"):
        JacobiDiagram(-1, 3, ())


def test_reports_are_frozen_and_equal_by_fields():
    a, b = CheckResult("a", True, "d"), CheckResult("a", True, "d")
    assert a == b and a != CheckResult("a", True, "e")
    with pytest.raises(AttributeError, match="^cannot assign to field "
                       "'passed'$"):
        a.passed = False
    assert a == b
    report = compare(SurgeryInput("unknot", 2), "A1", 2)
    with pytest.raises(AttributeError):
        report.equal = False
    assert report.equal is True


def test_report_json_keys_come_in_declaration_order():
    report = compare(SurgeryInput("unknot", 2), "A1", 2)
    assert isinstance(report, ComparisonReport)
    assert list(report.to_json()) == [
        "lie", "knot", "framing", "order", "certified_order",
        "lmo_definition", "lmo_lemma", "routes_equal", "h1_power", "taupg",
        "difference", "equal", "lmo_only"]
    assert CheckResult("a", True).to_json() == {
        "name": "a", "passed": True, "detail": ""}
    assert list(CheckResult("a", True).to_json()) == [
        "name", "passed", "detail"]
