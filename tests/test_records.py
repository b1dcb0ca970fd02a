"""The package's immutable value types: construction, equality, hashing, repr, immutability."""

import copy
import pickle

import pytest

from staircase_lab.alphagrade import DomainSplit
from staircase_lab.catalog import DeformationCase
from staircase_lab.errors import DomainError
from staircase_lab.hilbert import HilbertFunction
from staircase_lab.monomials import Monomial
from staircase_lab.pyramids import NRDecomposition, Pyramid, WeightTable
from staircase_lab.staircase import GradedMonomialIdeal
from staircase_lab.standard_form import StandardForm, TypeChain
from staircase_lab.torus import Chain, TorusWeight

M = Monomial(1, 2, 3)
M_REPR = "Monomial(ex=1, ey=2, ez=3)"
INF = float("-inf")

# per type: the field values of one instance, those of another that differs in
# one field, and the repr of the first as the dataclass implementation printed it
CASES = {
    "Monomial": (Monomial, (1, 2, 3), (1, 2, 4), M_REPR),
    "HilbertFunction": (HilbertFunction, ((0, 0, 3),), ((0, 2),), "HilbertFunction(diff=(0, 0, 3))"),
    "GradedMonomialIdeal": (GradedMonomialIdeal, ((2, 1),), ((2, 2),), "GradedMonomialIdeal(heights=(2, 1))"),
    "Pyramid": (
        Pyramid,
        ((frozenset(), frozenset({0, 1})),),
        ((frozenset(), frozenset({1})),),
        "Pyramid(columns=(frozenset(), frozenset({0, 1})))",
    ),
    "NRDecomposition": (
        NRDecomposition, ("square", 3, 1), ("square_pronic", 3, 1), "NRDecomposition(case='square', n=3, r=1)"
    ),
    "WeightTable": (
        WeightTable,
        ((((0, 0, frozenset({0})), (1, 0, frozenset())),), ((0, 0), (0, INF))),
        ((((0, 0, frozenset({0})), (1, 0, frozenset())),), ((0, 1), (0, INF))),
        "WeightTable(options=(((0, 0, frozenset({0})), (1, 0, frozenset())),), best=((0, 0), (0, -inf)))",
    ),
    "DomainSplit": (DomainSplit, (4,), (5,), "DomainSplit(threshold=4)"),
    "DeformationCase": (
        DeformationCase,
        ("x", 1, 4, abs, len, min, max),
        ("x", 1, 4, abs, len, min, sum),
        "DeformationCase(name='x', kernel_c=1, min_m=4, generators=<built-in function abs>, "
        "chain=<built-in function len>, deg_zero=<built-in function min>, deg_infinity=<built-in function max>)",
    ),
    "TypeChain": (TypeChain, ((5, 2), 1, 1), ((5, 2), 1, 0), "TypeChain(ms=(5, 2), kernel_c=1, kernel_kappa=1)"),
    "StandardForm": (
        StandardForm,
        ("x", GradedMonomialIdeal((1,)), 3),
        ("y", GradedMonomialIdeal((1,)), 3),
        "StandardForm(ell='x', kernel=GradedMonomialIdeal(heights=(1,)), m=3)",
    ),
    "TorusWeight": (TorusWeight, ((-1, 0, 1),), ((1, 0, -1),), "TorusWeight(rho=(-1, 0, 1))"),
    "Chain": (
        Chain, (M, frozenset({0, 2})), (M, frozenset({0, 1})), f"Chain(initial={M_REPR}, support=frozenset({{0, 2}}))"
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_equal_fields_equal_records_and_hashes(case):
    _, cls, args, other, _ = case
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(*other) and not a == cls(*other)
    assert len({a, b, cls(*other)}) == 2


def test_hash_is_the_hash_of_the_field_tuple(case):
    # the dataclass hash: set and dict orders, and so every output, stay as they were
    _, cls, args, _, _ = case
    assert hash(cls(*args)) == hash(tuple(args))


def test_repr_is_the_dataclass_repr(case):
    _, cls, args, _, text = case
    assert repr(cls(*args)) == text


def test_fields_cannot_be_set_or_deleted(case):
    _, cls, args, _, _ = case
    record = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(*args)


def test_too_many_or_too_few_arguments(case):
    _, cls, args, _, _ = case
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls()


def test_copies_and_pickles_are_equal(case):
    _, cls, args, _, _ = case
    record = cls(*args)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_of_different_types_are_never_equal():
    assert HilbertFunction((1,)) != GradedMonomialIdeal((1,))
    assert GradedMonomialIdeal((1,)) != HilbertFunction((1,))
    for name, (cls, args, _, _) in CASES.items():
        assert cls(*args) != tuple(args), name


@pytest.mark.parametrize(
    "build",
    [
        lambda: Monomial(0, -1, 0),
        lambda: HilbertFunction((0, 2, 3)),
        lambda: GradedMonomialIdeal((1, 2)),
        lambda: DomainSplit(-1),
        lambda: TorusWeight((0, 0, 0)),
        lambda: Chain(M, frozenset({1})),
    ],
    ids=["Monomial", "HilbertFunction", "GradedMonomialIdeal", "DomainSplit", "TorusWeight", "Chain"],
)
def test_public_constructors_run_their_checks(build):
    with pytest.raises(DomainError):
        build()
