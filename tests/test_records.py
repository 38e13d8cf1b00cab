"""The frozen records: equality, hashing, repr, constructors and immutability."""

import pytest
from tests_shared import ConstantBase

from odosym.classify2d import CentralizerInfinite, FullGL2, MembershipVerdict, OrderTwo
from odosym.intmat import (
    FundamentalDomain,
    HnfBasis,
    IntMatrix,
    fundamental_domain,
    parse_matrix,
)
from odosym.odometer import NcCertificate
from odosym.subshift_norm import LocalRule, build_local_rule, nl_membership

L = parse_matrix("2,1;0,3")


def test_equal_fields_give_equal_records_and_hashes():
    a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix(((1, 2), (3, 4)))
    assert a == b and hash(a) == hash(b)
    # the hash of the field tuple, so sets of matrices iterate in one order
    assert hash(a) == hash((a.rows,))
    assert NcCertificate(3, None, 12) == NcCertificate(n=3, m=None, bound=12)
    assert hash(ConstantBase(L)) == hash(ConstantBase(parse_matrix("2,1;0,3")))
    assert IntMatrix.identity(2) != IntMatrix.identity(3)
    assert NcCertificate(3, 1, 12) != NcCertificate(3, None, 12)


def test_caches_take_no_part_in_equality_or_hashing():
    domain = fundamental_domain(L)
    bare = FundamentalDomain(domain.base, domain.reps, domain.hnf_basis, {})
    assert bare == domain and hash(bare) == hash(domain)
    assert "_rep_of_key" not in repr(domain)


def test_records_of_different_classes_are_never_equal():
    assert FullGL2() == FullGL2() and hash(FullGL2()) == hash(FullGL2())
    assert FullGL2() != OrderTwo()
    one = IntMatrix.identity(1)
    assert HnfBasis(one) != CentralizerInfinite(one)  # equal fields, other class
    assert HnfBasis(one) != NcCertificate(1, None, 1)
    assert IntMatrix(((1,),)) != ((1,),)
    assert ConstantBase(L) != L


def test_fields_cannot_be_assigned_or_deleted():
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = ((2, 0), (0, 2))
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.rows
    verdict = MembershipVerdict(True, "full-gl2")
    with pytest.raises(AttributeError):
        verdict.member = False
    assert m.rows == ((1, 0), (0, 1)) and verdict.member is True


def test_repr_names_the_class_and_its_compared_fields():
    assert repr(IntMatrix([[1, -2], [3, 4]])) == "IntMatrix(rows=((1, -2), (3, 4)))"
    assert repr(NcCertificate(2, None, 9)) == "NcCertificate(n=2, m=None, bound=9)"
    assert repr(FullGL2()) == "FullGL2()"


def test_constructors_take_positions_keywords_and_defaults():
    assert MembershipVerdict(False, "unit-eigenlines").witness is None
    verdict = MembershipVerdict(member=False, reason="unit-eigenlines", witness=(0, 3))
    assert verdict == MembershipVerdict(False, "unit-eigenlines", (0, 3))
    rule = build_local_rule(nl_membership(L, IntMatrix.identity(2)))
    fields = dict(vars(rule))
    assert LocalRule(**fields) == LocalRule(*fields.values()) == rule
    del fields["per_level"]
    with pytest.raises(TypeError):
        LocalRule(**fields)
    one = IntMatrix.identity(1)
    assert HnfBasis(matrix=one) == HnfBasis(one)
    with pytest.raises(TypeError, match="missing the field 'matrix'"):
        HnfBasis()
    with pytest.raises(TypeError, match="takes 1 fields, got 2"):
        HnfBasis(one, one)
    with pytest.raises(TypeError, match="unexpected field 'j'"):
        HnfBasis(matrix=one, j=2)
    with pytest.raises(TypeError):
        NcCertificate(1, 2)


def test_cached_properties_still_cache():
    m = parse_matrix("2,1;1,3")
    assert m._inverse is m._inverse
    assert m.solve_exact((5, 5)) == (2, 1)
