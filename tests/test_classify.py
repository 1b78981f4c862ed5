"""Type-invariant detection, tensor/power laws, the AFD tensor rule, the
III_1 family, and the modulus cross-check."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkms import classify, perron, scalars, tensorops
from ckkms.classify import PowerForm, TypeLabel
from ckkms.errors import (DomainError, PreconditionError, ResourceLimitError)
from ckkms.intervals import Interval
from ckkms.scalars import Flt, Q, Rat

from conftest import FULL2, GOLDEN, to_fraction

GOLDEN_FLOAT = (math.sqrt(5) - 1) / 2


def golden_base():
    return scalars.make_algebraic([-1, 1, 1], Q(0), Q(1))


def values_close(a, b, tol) -> bool:
    """The enclosures of a and b at width tol/8 are within tol of each other."""
    ia, ib = scalars.refine(a, tol / 8), scalars.refine(b, tol / 8)
    return ia.distance_sup(ib) <= tol


def assert_decomposition_invariants(label: TypeLabel):
    if label.decomposition is not None:
        exps = label.decomposition.exponents
        g = 0
        for e in exps:
            g = math.gcd(g, e)
        assert g == 1
        assert values_close(label.decomposition.base, label.lam, Q(1, 10**9))


class TestDetectLambda:
    def test_uniform_half(self):
        label = classify.detect_lambda((Q(1, 2), Q(1, 2)))
        assert label.mode == "exact"
        assert to_fraction(label.lam) == Q(1, 2)
        assert label.decomposition.exponents == (1, 1)
        assert_decomposition_invariants(label)

    def test_independent_rationals(self):
        label = classify.detect_lambda((Q(1, 3), Q(2, 3)))
        assert label.mode == "exact" and label.is_one
        assert label.decomposition is None

    def test_golden_power_form(self):
        label = classify.detect_lambda(PowerForm(golden_base(), (1, 2)))
        assert label.mode == "exact"
        assert abs(scalars.to_float(label.lam) - GOLDEN_FLOAT) < 1e-12
        assert label.decomposition.exponents == (1, 2)
        assert_decomposition_invariants(label)

    def test_power_form_gcd_normalized(self):
        label = classify.detect_lambda(PowerForm(golden_base(), (2, 4)))
        assert abs(scalars.to_float(label.lam) - GOLDEN_FLOAT ** 2) < 1e-12
        assert label.decomposition.exponents == (1, 2)
        assert_decomposition_invariants(label)

    def test_rational_powers(self):
        label = classify.detect_lambda((Q(1, 4), Q(1, 8)))
        assert label.mode == "exact"
        assert to_fraction(label.lam) == Q(1, 2)
        assert label.decomposition.exponents == (2, 3)

    def test_float_heuristic_detects_powers(self):
        label = classify.detect_lambda((Flt(0.25), Flt(0.5)))
        assert label.mode == "heuristic"
        assert abs(scalars.to_float(label.lam) - 0.5) < 1e-9
        assert label.decomposition.exponents == (2, 1)

    def test_float_heuristic_independent(self):
        label = classify.detect_lambda((Flt(0.5), Flt(0.5 ** math.sqrt(2))))
        assert label.mode == "heuristic" and label.is_one
        assert label.warnings

    def test_float_exponent_cap(self):
        label = classify.detect_lambda((Flt(0.5), Flt(0.5 ** 65)))
        assert label.mode == "heuristic" and label.is_one
        assert any("implausibly large" in w for w in label.warnings)

    def test_mixed_independent_bases_exact_one(self):
        label = classify.detect_lambda((Rat(Q(1, 2)),
                                        scalars.make_power(golden_base(), 1)))
        assert label.is_one and label.mode == "exact"

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            classify.detect_lambda((Q(1, 2), Q(3, 2)))
        with pytest.raises(DomainError):
            classify.detect_lambda(())

    def test_permutation_invariance(self):
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(2, 5)
            base = Q(rng.randint(2, 5), rng.randint(6, 9))
            entries = [base ** rng.randint(1, 3) for _ in range(n)]
            if rng.random() < 0.5:
                entries[-1] = Q(rng.randint(1, 4), rng.randint(5, 9))
            perm = list(entries)
            rng.shuffle(perm)
            a = classify.detect_lambda(tuple(entries))
            b = classify.detect_lambda(tuple(perm))
            assert a.mode == b.mode == "exact"
            assert scalars.same_value(a.lam, b.lam)

    def test_common_base_pairs(self):
        label = classify.detect_lambda((Rat(Q(1, 2)), Rat(Q(1, 2))))
        assert label.decomposition is not None
        assert label.decomposition.base.value == Q(1, 2)
        assert label.decomposition.exponents == (1, 1)

        assert classify.detect_lambda((Rat(Q(1, 3)), Rat(Q(2, 3)))).decomposition is None

        label = classify.detect_lambda((Rat(Q(1, 4)), Rat(Q(1, 2))))
        assert label.decomposition is not None
        assert label.decomposition.base.value == Q(1, 2)
        assert label.decomposition.exponents == (2, 1)

    @given(st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                        max_denominator=12),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_powers_of_one_base_recovered(self, base, p, q):
        if base == 1 or math.gcd(p, q) != 1:
            return
        hit = classify.detect_lambda((Rat(base**p), Rat(base**q))).decomposition
        assert hit is not None
        # recovered base generates both entries with coprime exponents
        e1, e2 = hit.exponents
        assert hit.base.value**e1 == base**p and hit.base.value**e2 == base**q
        assert math.gcd(e1, e2) == 1

    def test_domain_check(self):
        with pytest.raises(DomainError):
            classify.detect_lambda((Rat(Q(3, 2)), Rat(Q(1, 2))))

    @pytest.mark.parametrize("entries", [
        lambda g: (Q(1, 4), Q(1, 8)),
        lambda g: (g, scalars.make_power(g, 2)),
        lambda g: (scalars.mul(Rat(Q(1, 2)), g),
                   scalars.mul(Rat(Q(1, 4)), scalars.make_power(g, 2))),
    ], ids=["rational", "power", "mixed"])
    def test_labels_are_hashable(self, entries):
        label = classify.detect_lambda(entries(golden_base()))
        assert label.mode == "exact" and label.decomposition is not None
        assert isinstance(label.decomposition.exponents, tuple)
        assert hash(label) == hash(classify.detect_lambda(entries(golden_base())))

    def test_entry_below_the_smallest_float_is_a_resource_limit(self):
        # in (0, 1) exactly, but 0.0 as a float: no log of it is taken
        tiny = scalars.Enc(Interval(Q(1, 10**400), Q(2, 10**400)))
        for entries in ((tiny,), (Q(1, 2), tiny)):
            with pytest.raises(ResourceLimitError, match="smallest positive float"):
                classify.detect_lambda(entries)


class TestTensorType:
    def test_rational_pair_gives_one(self):
        label = classify.tensor_type((Q(1, 3), Q(2, 3)), (Q(1, 2), Q(1, 2)))
        assert label.is_one and label.mode == "exact"

    def test_golden_mixed_gives_one(self):
        c = golden_base()
        label = classify.tensor_type((Rat(Q(1, 2)), Rat(Q(1, 2))),
                                     (c, scalars.mul(c, c)))
        assert label.is_one and label.mode == "exact"

    def test_canonical_product(self):
        label = classify.tensor_type((Q(1, 2), Q(1, 2)),
                                     (Q(1, 3), Q(1, 3), Q(1, 3)))
        assert to_fraction(label.lam) == Q(1, 6)
        assert label.mode == "exact"

    def test_power_forms_same_base(self):
        form = PowerForm(golden_base(), (1, 2))
        label = classify.tensor_type(form, form)
        assert abs(scalars.to_float(label.lam) - GOLDEN_FLOAT) < 1e-12
        assert label.decomposition.exponents == (2, 3, 3, 4)

    def test_label_symmetry(self):
        pairs = [((Q(1, 2), Q(1, 2)), (Q(1, 4), Q(3, 4))),
                 ((Q(1, 3), Q(2, 3)), (Q(1, 8), Q(7, 8))),
                 ((Q(1, 6), Q(5, 6)), (Q(1, 2), Q(1, 2)))]
        for a, b in pairs:
            fwd = classify.tensor_type(a, b)
            rev = classify.tensor_type(b, a)
            assert fwd.mode == rev.mode
            assert scalars.same_value(fwd.lam, rev.lam)

    def test_not_multiplicative(self):
        c = golden_base()
        b = (Rat(Q(1, 2)), Rat(Q(1, 2)))
        lam_b = classify.detect_lambda(b)
        lam_c = classify.detect_lambda((c, scalars.mul(c, c)))
        tensor = classify.tensor_type(b, (c, scalars.mul(c, c)))
        assert tensor.is_one
        assert not lam_b.is_one and not lam_c.is_one  # 1 != (1/2) * golden


class TestPowerType:
    def test_uniform_cube(self):
        label = classify.power_type_direct((Q(1, 2), Q(1, 2)), 3)
        assert to_fraction(label.lam) == Q(1, 8)
        assert label.mode == "exact"

    def test_type_one_is_stable(self):
        for a in ((Q(1, 3), Q(2, 3)), tuple(classify.iii1_family(3))):
            assert classify.detect_lambda(a).is_one
            for k in (2, 3, 4):
                assert classify.power_type_direct(a, k).is_one

    def test_golden_fifth_power(self):
        label = classify.power_type_direct(PowerForm(golden_base(), (2, 1)), 5)
        assert abs(scalars.to_float(label.lam) - GOLDEN_FLOAT) < 1e-12
        assert label.mode == "exact"

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            classify.power_type_direct(PowerForm(golden_base(), (1, 2)), 13)
        with pytest.raises(ResourceLimitError):
            classify.power_type_direct((Q(1, 2), Q(1, 2)), 5, dimension_cap=16)

    @pytest.mark.parametrize("a", [
        (Q(1, 2), Q(1, 3), Q(1, 6)),
        PowerForm(golden_base(), (1, 2)),
    ], ids=["entries", "power-form"])
    def test_huge_power_is_refused_without_building_it(self, a):
        # 3^(10^9) has about 4.8e8 digits: neither computing it nor printing
        # it in the message may happen
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="exceeds the cap 4096"):
            classify.power_type_direct(a, 10**9)
        assert time.monotonic() - start < 1.0

    def test_power_must_be_positive(self):
        with pytest.raises(DomainError):
            classify.power_type_direct((Q(1, 2), Q(1, 2)), 0)

    def test_one_float_entry_below_the_float_range_is_a_resource_limit(self):
        # 0.5^4096 is 0.0 as a float, but the entry 0.5 is a valid one
        with pytest.raises(ResourceLimitError, match="smallest positive float"):
            classify.power_type_direct((0.5,), 4096)
        label = classify.power_type_direct((0.5,), 3)
        assert label.mode == "heuristic"
        assert abs(scalars.to_float(label.lam) - 0.125) < 1e-15
        with pytest.raises(DomainError, match="strictly between 0 and 1"):
            classify.power_type_direct((-0.5,), 4096)

    def test_one_entry_power_is_the_entry_power(self):
        assert classify.power_type_direct((Q(1, 2),), 3).lam == Rat(Q(1, 8))
        label = classify.power_type_direct(PowerForm(golden_base(), (2,)), 3)
        assert label.mode == "exact"
        assert scalars.same_value(label.lam, scalars.make_power(golden_base(), 6))

    @pytest.mark.parametrize("a, k, lam", [
        ((Q(1, 2),), 4096, Q(1, 2**4096)),
        ((Q(1, 2),), 10**9, None),
        ((Q(1, 99),), 4096, None),  # 99^4096 has 8,174 digits
        ((Q(1, 99),), 10**9, None),
        (PowerForm(golden_base(), (1,)), 10**9, None),
    ], ids=["half-4096", "half-1e9", "99th-4096", "99th-1e9", "golden-1e9"])
    def test_one_entry_power_is_capped_by_label_size(self, a, k, lam):
        # no Kronecker loop of k - 1 steps runs, and no label past
        # POWER_LABEL_BITS is built
        start = time.monotonic()
        if lam is None:
            with pytest.raises(ResourceLimitError, match="label size cap"):
                classify.power_type_direct(a, k)
        else:
            label = classify.power_type_direct(a, k)
            assert label.lam == Rat(lam) and label.mode == "exact"
        assert time.monotonic() - start < 1.0


class TestPowerTypeCk2:
    def test_golden_family_always_one(self):
        for k in range(1, 13):
            assert classify.power_type_ck2(1, 2, k) == 1

    def test_even_gap_square(self):
        assert classify.power_type_ck2(1, 3, 4) == 2

    def test_gap_six_table(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 6,
                    7: 1, 8: 2, 9: 3, 10: 2, 11: 1, 12: 6}
        for k, r in expected.items():
            assert classify.power_type_ck2(5, 11, k) == r

    def test_equal_exponents_give_k(self):
        for k in range(1, 8):
            assert classify.power_type_ck2(1, 1, k) == k

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            classify.power_type_ck2(2, 4, 3)
        with pytest.raises(DomainError):
            classify.power_type_ck2(0, 1, 3)
        with pytest.raises(DomainError):
            classify.power_type_ck2(1, 2, 0)

    def test_agrees_with_direct_computation(self):
        for p, q in ((1, 1), (1, 2), (1, 3), (5, 11)):
            base = perron.solve_power_equation((p, q))
            form = PowerForm(base, (p, q))
            for k in range(1, 13):
                r = classify.power_type_ck2(p, q, k)
                label = classify.power_type_direct(form, k)
                expected = scalars.make_power(base, r)
                assert values_close(label.lam, expected, Q(1, 10**9)), (
                    p, q, k, r)


class TestAfdRule:
    def test_common_base(self):
        got = classify.afd_tensor_rule(Rat(Q(1, 4)), Rat(Q(1, 8)))
        assert to_fraction(got) == Q(1, 2)

    def test_independent(self):
        got = classify.afd_tensor_rule(Rat(Q(1, 2)), Rat(Q(1, 3)))
        assert to_fraction(got) == 1

    def test_one_absorbs(self):
        assert classify.afd_tensor_rule(Rat(Q(1, 2)), Rat(Q(1))) == scalars.ONE
        assert classify.afd_tensor_rule(Rat(Q(1)), Rat(Q(1, 5))) == scalars.ONE

    def test_algebraic_powers(self):
        g = golden_base()
        got = classify.afd_tensor_rule(scalars.make_power(g, 2),
                                       scalars.make_power(g, 3))
        assert values_close(got, g, Q(1, 10**9))

    def test_domain(self):
        with pytest.raises(DomainError):
            classify.afd_tensor_rule(Rat(Q(0)), Rat(Q(1, 2)))
        with pytest.raises(DomainError):
            classify.afd_tensor_rule(Rat(Q(3, 2)), Rat(Q(1, 2)))


class TestIii1Family:
    def test_small_cases(self):
        assert classify.iii1_family(2) == (Q(1, 3), Q(2, 3))
        assert classify.iii1_family(3) == (Q(1, 5), Q(2, 5), Q(2, 5))
        assert classify.iii1_family(4) == (Q(1, 5), Q(1, 5), Q(1, 5), Q(2, 5))

    def test_simplex_and_type_one(self):
        for n in range(2, 9):
            family = classify.iii1_family(n)
            assert len(family) == n
            assert sum(family) == 1
            assert all(0 < v < 1 for v in family)
            assert classify.detect_lambda(family).is_one

    def test_tensor_of_families_stays_one(self):
        for n in range(2, 7):
            for m in range(2, 7):
                label = classify.tensor_type(classify.iii1_family(n),
                                              classify.iii1_family(m))
                assert label.is_one and label.mode == "exact"

    def test_minimum(self):
        with pytest.raises(DomainError):
            classify.iii1_family(1)


class TestOkaCrosscheck:
    def test_uniform_full2(self):
        report = classify.oka_crosscheck(FULL2, (Q(1), Q(1)))
        assert report.match
        assert to_fraction(report.lam) == Q(1, 2)
        lo, hi = report.modulus
        assert float(lo) <= math.log(2) <= float(hi)

    def test_golden_matrix(self):
        report = classify.oka_crosscheck(GOLDEN, (Q(1), Q(1)))
        assert report.match
        assert abs(scalars.to_float(report.lam) - GOLDEN_FLOAT) < 1e-10

    def test_mixed_frequencies(self):
        report = classify.oka_crosscheck(FULL2, (Q(1), Q(2)))
        assert report.match
        assert abs(scalars.to_float(report.lam) - GOLDEN_FLOAT) < 1e-10

    def test_scaled_frequencies(self):
        report = classify.oka_crosscheck(FULL2, (Q(1, 2), Q(1)))
        assert report.match
        assert abs(scalars.to_float(report.lam) - GOLDEN_FLOAT) < 1e-10

    def test_needs_rational_frequencies(self):
        with pytest.raises(PreconditionError):
            classify.oka_crosscheck(FULL2, (Q(1), Flt(math.sqrt(2))))


class TestTypeLabel:
    def test_mode_validation(self):
        with pytest.raises(DomainError):
            TypeLabel(scalars.ONE, "approximate")

    def test_is_one(self):
        assert classify.LABEL_ONE.is_one
        assert not TypeLabel(Rat(Q(1, 2)), "exact").is_one
