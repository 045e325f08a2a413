"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import random
import sys
import time
import warnings
from fractions import Fraction

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place, class_number,
                      constant_extension, constant_field_degree,
                      enumerate_omega, mass_hereditary, maximal_order,
                      prime_degree_class_number, theta,
                      total_class_number_genera, transfer_check,
                      weight_class_numbers)
from csaclass.omega import local_shape
from conftest import (centralizer_spec, per_genus, random_definite_spec,
                      random_order, theta_enum, with_listed_place)

from test_basefield import (divisor_counts_rational, root_power_l_poly,
                            series_coefficients)
from test_omega import brute_force_omega


def _verdict(number: int, title: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {number} ({title}): {status}",
          file=sys.__stdout__, flush=True)
    assert passed, f"criterion {number}: {title}"


def _golden_order() -> OrderSpec:
    base = BaseField(3)
    spec = AlgebraSpec(
        base, 4,
        (Place("T", 1, 4, 1), Place("T+1", 1, 2, 1), Place("T+2", 1, 2, 1)),
        -1)
    return maximal_order(spec)


def test_criterion_01_golden_example():
    started = time.monotonic()
    order = _golden_order()
    ok = mass_hereditary(order) == Fraction(169, 5)
    ok &= mass_hereditary(maximal_order(
        centralizer_spec(order.algebra, 2))) == Fraction(1, 80)
    q = 3
    ok &= theta_enum(Place("T", 1, 4), (1,), 2, q) == 2
    ok &= theta_enum(Place("T+1", 1, 2), (2,), 2, q) == 12
    ok &= theta_enum(Place("T+2", 1, 2), (2,), 2, q) == 12
    ok &= theta_enum(Place("T", 1, 4), (1,), 4, q) == 4
    ok &= theta_enum(Place("T+1", 1, 2), (2,), 4, q) == 2
    ok &= theta_enum(Place("T+2", 1, 2), (2,), 4, q) == 2
    h = weight_class_numbers(order)
    ok &= h == {4: 4, 2: 14, 1: 64}
    ok &= class_number(order) == 82
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _verdict(1, "golden example, exact values under 1 second", ok)


def test_criterion_02_mass_consistency():
    started = time.monotonic()
    rng = random.Random(20260823)
    ok = True
    for _ in range(200):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        h = weight_class_numbers(order)
        q = spec.base.q
        resum = sum((Fraction(h[s], q ** s - 1) for s in h), Fraction(0))
        ok &= resum == mass_hereditary(order)
        ok &= all(isinstance(v, int) and v >= 0 for v in h.values())
    ok &= (time.monotonic() - started) < 120
    _verdict(2, "mass consistency on 200 random definite specs", ok)


def _compositions_pos(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_pos(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_03_engine_equivalence():
    # realize every local shape with l, r, t <= 3 and m^(s) <= 4 over
    # places whose norm lies in {2, 3, 4, 9}
    shapes = set()
    ok = True
    for q, deg in ((2, 1), (3, 1), (4, 1), (2, 2), (9, 1), (3, 2)):
        for d in (1, 2, 3, 4, 6):
            for s in (1, 2, 3, 4, 6, 9, 12):
                for m in range(1, 13):
                    for r in range(1, min(m, 3) + 1):
                        for f in _compositions_pos(m, r):
                            place = Place("v", deg, d)
                            try:
                                l, t, m_s, _ = local_shape(place, f, s)
                            except Exception:
                                continue
                            if l > 3 or t > 3 or m_s > 4:
                                continue
                            ok &= (theta_enum(place, f, s, q)
                                   == theta(place, f, s, q))
                            shapes.add((l, r, t, m_s))
    ok &= all(l <= 3 and r <= 3 and t <= 3 for l, r, t, _ in shapes)
    # norms in {2,3,4,9} force deg v <= 2, hence l <= 2: every reachable
    # (l, r, t) combination in the stated domain must occur
    ok &= {(l, r, t) for l, r, t, _ in shapes} \
        == {(l, r, t) for l in (1, 2) for r in (1, 2, 3) for t in (1, 2, 3)}
    _verdict(3, "theta equals enumeration", ok)


def test_criterion_04_omega_oracle():
    ok = True
    count = 0
    for deg in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for s in (1, 2, 3, 4, 6):
                for m in range(1, 5):
                    for r in range(1, min(m, 3) + 1):
                        for f in _compositions_pos(m, r):
                            place = Place("v", deg, d)
                            try:
                                l, t, m_s, _ = local_shape(place, f, s)
                            except Exception:
                                continue
                            if l * r * t > 12:
                                continue
                            if (m_s + 1) ** (l * r * t) > 300000:
                                continue
                            expected = brute_force_omega(place, f, s)
                            got = list(enumerate_omega(place, f, s))
                            ok &= sorted(got) == sorted(expected)
                            ok &= sum(1 for _ in enumerate_omega(
                                place, f, s)) == len(expected)
                            count += 1
    ok &= count >= 100
    _verdict(4, "omega enumeration matches brute-force oracle", ok)


def test_criterion_05_prime_degree_cross_formula():
    rng = random.Random(5503)
    ok = True
    checked = 0
    saw_vanishing_term = False
    while checked < 50:
        spec = random_definite_spec(rng, max_degree=5)
        if spec.degree not in (2, 3, 5):
            continue
        order = random_order(rng, spec)
        ok &= prime_degree_class_number(order) == class_number(order)
        if constant_field_degree(spec) == 1:
            saw_vanishing_term = True
        checked += 1
    ok &= saw_vanishing_term
    _verdict(5, "prime-degree closed formula matches recursion (50 specs)", ok)


def test_criterion_06_transfer_principle():
    ok = True
    order = _golden_order()
    for s in (1, 2, 4):
        for s2 in (1, 2, 4):
            if s2 % s:
                continue
            ok &= transfer_check(order, s, s2).equal
    rng = random.Random(6006)
    checked = 0
    while checked < 10:
        spec = random_definite_spec(rng, max_degree=4)
        rand = random_order(rng, spec)
        s0 = constant_field_degree(spec)
        divisors = [s for s in range(1, s0 + 1) if s0 % s == 0]
        if len(divisors) < 2:
            continue
        for s in divisors:
            for s2 in divisors:
                if s2 % s:
                    continue
                ok &= transfer_check(rand, s, s2, budget=50000).equal
        checked += 1
    _verdict(6, "transfer principle on golden and 10 random specs", ok)


def test_criterion_07_drinfeld_specialization():
    ok = True
    for n in (2, 3, 4):
        for q in (2, 3):
            for deg_v0 in (1, n + 1):
                spec = AlgebraSpec(
                    BaseField(q), n,
                    (Place("v0", deg_v0, n, 1),), -1)
                order = maximal_order(spec)
                s0 = constant_field_degree(spec)
                ok &= s0 == n
                h = weight_class_numbers(order)
                for s in range(1, s0 + 1):
                    if s0 % s:
                        continue
                    total = 1
                    for label in order.relevant_labels():
                        v = spec.place(label)
                        total *= sum(1 for _ in enumerate_omega(
                            v, (spec.capacity(v),), s))
                    ok &= total == s
                    derived = maximal_order(centralizer_spec(spec, s))
                    h_sub = weight_class_numbers(derived)
                    for s2 in h:
                        if s2 % s == 0:
                            ok &= h[s2] == h_sub[s2 // s]
    _verdict(7, "Drinfeld-type specialization", ok)


def test_criterion_08_zeta_oracle():
    ok = True
    for q in (2, 3):
        ok &= divisor_counts_rational(q, 6) == series_coefficients(q, 6)
    for q in (2, 3, 4, 5, 7):
        for a in range(-5, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                base = BaseField(q, [1, a, q])
            ext = constant_extension(base, 2)
            ok &= ext.l_poly == root_power_l_poly((1, a, q), 2)
    _verdict(8, "zeta divisor-count and root-exponentiation oracles", ok)


def test_criterion_09_rotation_invariance():
    rng = random.Random(909)
    ok = True
    checked = 0
    while checked < 20:
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        if not order.invariants:
            continue
        # OrderSpec keeps the least rotation, so the rotated vector goes to
        # the enumeration, which walks the columns in the order given.
        algebra = order.algebra
        q = algebra.base.q
        s0 = constant_field_degree(algebra)
        for label, f_vec in order.invariants:
            v = algebra.place(label)
            rotated = f_vec[1:] + f_vec[:1]
            for s in range(1, s0 + 1):
                if s0 % s == 0:
                    ok &= (theta_enum(v, rotated, s, q)
                           == theta(v, f_vec, s, q))
        checked += 1
    _verdict(9, "reports invariant under cyclic rotation of invariants", ok)


def test_criterion_10_genera():
    spec = AlgebraSpec(BaseField(3), 2,
                       (Place("v0", 1, 2, 1),), -1)
    spec = with_listed_place(spec, "w", 1)
    order = OrderSpec(spec, (("w", (1, 1)),))
    report = total_class_number_genera(order)
    by_genus = dict(per_genus(report))
    h_max = class_number(maximal_order(spec))
    ok = len(per_genus(report)) == 3
    ok &= by_genus.get((("w", (2, 0)),)) == h_max
    ok &= by_genus.get((("w", (0, 2)),)) == h_max
    ok &= by_genus.get((("w", (1, 1)),)) == class_number(order)
    ok &= report.total == 2 * h_max + class_number(order)
    _verdict(10, "genus decomposition of the Iwahori quaternion order", ok)
