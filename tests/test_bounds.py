"""Ordering, saturating arithmetic and value semantics of the dimension values."""

import copy
import pickle
import sys
import threading

import pytest

from asdimlab.bounds import (
    FINITE_UNKNOWN,
    UNKNOWN,
    DimBound,
    ExtendedDim,
    InconsistentBoundError,
    finite,
)
from asdimlab.groups import Amalgam, Finite, FreeAbelian, Lattice, parse_canonical, to_canonical


def test_total_order():
    chain = [finite(n) for n in range(7)] + [FINITE_UNKNOWN, UNKNOWN]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)
            assert (a <= b) == (i <= j)
    assert max(chain) is UNKNOWN
    assert min(chain) == finite(0)


def test_sorting_is_stable_under_str():
    values = [UNKNOWN, finite(3), FINITE_UNKNOWN, finite(0), finite(5)]
    assert [str(v) for v in sorted(values)] == ["0", "3", "5", "fin", "?"]


def test_addition_saturates():
    assert finite(2) + finite(3) == finite(5)
    assert finite(2) + FINITE_UNKNOWN == FINITE_UNKNOWN
    assert FINITE_UNKNOWN + FINITE_UNKNOWN == FINITE_UNKNOWN
    assert finite(2) + UNKNOWN == UNKNOWN
    assert FINITE_UNKNOWN + UNKNOWN == UNKNOWN
    assert UNKNOWN + UNKNOWN == UNKNOWN


def test_flags():
    assert finite(4).is_number and finite(4).is_finite
    assert not FINITE_UNKNOWN.is_number
    assert FINITE_UNKNOWN.is_finite
    assert not UNKNOWN.is_number
    assert not UNKNOWN.is_finite


def test_extended_dim_parse_roundtrip():
    for token in [str(n) for n in range(9)] + ["fin", "?"]:
        assert str(ExtendedDim.parse(token)) == token
    with pytest.raises(ValueError):
        ExtendedDim.parse("three")
    with pytest.raises(ValueError):
        ExtendedDim.parse("-1")


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        finite(-1)


def test_dimbound_validation():
    b = DimBound(2, finite(4))
    assert str(b) == "2..4"
    with pytest.raises(ValueError):
        DimBound(-1, finite(0))
    with pytest.raises(InconsistentBoundError):
        DimBound(3, finite(2))
    # qualitative uppers never conflict with a numeric lower
    assert DimBound(5, FINITE_UNKNOWN).upper is FINITE_UNKNOWN
    assert DimBound(5, UNKNOWN).upper is UNKNOWN


def test_dimbound_parse():
    for text in ("0..0", "1..4", "2..fin", "3..?"):
        assert str(DimBound.parse(text)) == text
    assert DimBound.exact(3) == DimBound(3, finite(3))
    with pytest.raises(ValueError):
        DimBound.parse("4")
    with pytest.raises(ValueError):
        DimBound.parse("a..b")
    with pytest.raises(InconsistentBoundError):
        DimBound.parse("4..1")


def test_reprs_name_every_field():
    assert repr(DimBound(1, FINITE_UNKNOWN)) == "DimBound(lower=1, upper=ExtendedDim(rank=1, value=0))"
    assert repr(finite(3)) == "ExtendedDim(rank=0, value=3)"
    assert repr(UNKNOWN) == "ExtendedDim(rank=2, value=0)"


def test_equal_values_are_one_shared_value():
    a, b = DimBound(2, finite(4)), DimBound.parse("2..4")
    assert a == b and hash(a) == hash(b) and a is b
    assert finite(4) is ExtendedDim(0, 4) and ExtendedDim.parse("fin") is FINITE_UNKNOWN
    assert a != DimBound(2, finite(5)) and a != DimBound(2, FINITE_UNKNOWN)
    assert a != (2, finite(4)) and finite(4) != 4


@pytest.mark.parametrize(
    "value", [finite(0), FINITE_UNKNOWN, UNKNOWN, DimBound(1, finite(3)), DimBound(4, UNKNOWN)], ids=str
)
def test_copies_and_pickles_are_the_same_value(value):
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)


def test_values_are_immutable():
    bound = DimBound(1, finite(2))
    for value, field in ((bound, "lower"), (bound, "upper"), (bound.upper, "rank"), (bound.upper, "value")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert str(bound) == "1..2" and bound == DimBound(1, finite(2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: finite(True),
        lambda: finite(2.0),
        lambda: DimBound(1.0, finite(2)),
        lambda: DimBound(True, finite(2)),
        lambda: ExtendedDim(True),
    ],
    ids=["finite(True)", "finite(2.0)", "DimBound(1.0)", "DimBound(True)", "ExtendedDim(True)"],
)
def test_fields_must_be_exact_ints(make):
    with pytest.raises(ValueError):
        make()


def test_values_built_by_racing_threads_agree():
    # lookup then insert is not atomic: a racing thread may build a duplicate,
    # which must still equal, hash and print as the shared value
    built: list[list] = []

    def build():
        built.append([value for lo in range(40) for up in range(40) for value in (
            DimBound(lo, finite(lo + up)),
            Amalgam(FreeAbelian(lo), Lattice("H4", 4, True), Finite(up + 1)),
        )])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 6
    for values in built:
        for value, first in zip(values, built[0]):
            assert value == first and hash(value) == hash(first) and str(value) == str(first)
            if type(value) is DimBound:
                assert value == DimBound.parse(str(value))
            else:
                assert value == parse_canonical(to_canonical(value))
