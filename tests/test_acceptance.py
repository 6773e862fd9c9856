"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every numeric check is exact; the stated runtime budgets are
asserted as well.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from math import comb, gcd

from bdivkit.bounds import (
    char_p_ratio_report,
    curve_power_report,
    fermat_threshold_scan,
    hurwitz_report,
    min_volume_candidate,
    projective_space_log_volume,
    sylvester,
    sylvester_coeffs,
    unitary_order_poly,
)
from bdivkit.dcc import (
    FiniteSet,
    StandardSet,
    SumClosure,
    dcc_verdict,
    materialize,
    standard_coeff,
)
from bdivkit.logpairs import (
    BDivisor,
    LocalPair,
    blowup_chain_coeff,
    mld_origin_minimizer,
    pullback_coeff,
    rounding_comparison,
)
from bdivkit.reduction import (
    positive_pullback_prefixes,
    run_reduction,
    verify_reduction,
)
from test_exact import primitive_part


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(
        f"ACCEPTANCE {num} ({name}): {verdict} "
        f"[{elapsed:.2f}s, budget {budget_seconds}s]"
    )
    assert ok, f"criterion {num} exceeded its {budget_seconds}s budget"


def test_criterion_1_sylvester_suite():
    with criterion(1, "sylvester suite", 1.0):
        terms = sylvester(8)
        prod = 1
        for i in range(1, len(terms)):
            assert terms[i] == terms[i - 1] * (terms[i - 1] + 1)
            prod *= terms[i - 1] + 1
            assert terms[i] == prod
        assert terms[3] == 42
        assert min_volume_candidate(1) == F(1, 42)


def test_criterion_2_pn_volume_cross_check():
    with criterion(2, "projective-space volume cross-check", 1.0):
        for n in range(1, 5):
            assert projective_space_log_volume(
                n, sylvester_coeffs(n)
            ) == min_volume_candidate(n)


def test_criterion_3_fermat_threshold():
    with criterion(3, "fermat threshold scan", 1.0):
        rows = fermat_threshold_scan(10)
        assert [r["n"] for r in rows if r["exceeds"]] == [5, 6, 7, 8, 9, 10]
        assert rows[3]["ratio"] == 1_728_720 < rows[3]["threshold"] == 3_111_696
        assert rows[4]["ratio"] == 165_150_720 > rows[4]["threshold"] == 130_691_232


def test_criterion_4_unitary_degrees_and_char_p():
    with criterion(4, "unitary degrees and char-p bound", 5.0):
        for n in range(1, 7):
            poly, _ = unitary_order_poly(n)
            assert len(poly) - 1 == comb(n + 2, 2) + comb(n + 3, 2) - 1
        report, rows = char_p_ratio_report(50)
        assert report.values["order_degree"] == 8 == 4 * report.values["vol_degree"]
        assert rows and all(r["ok"] for r in rows)
        qs = {r["q"] for r in rows}
        assert {3, 4, 5, 49} <= qs and 6 not in qs


def test_criterion_5_hurwitz_identity():
    with criterion(5, "hurwitz identity and product ratio", 1.0):
        for g in range(2, 101):
            rep = hurwitz_report(g)
            assert rep.values["bound"] == 84 * (g - 1) == 42 * rep.values["vol"]
        for n in range(1, 6):
            ratios = {
                curve_power_report(n, g).values["ratio"] for g in (2, 3, 7, 20)
            }
            assert ratios == {42**n}


def test_criterion_6_pullback_oracle_equivalence():
    with criterion(6, "blow-up chain oracle equivalence", 10.0):
        coeffs = [F(0), F(1, 2), F(2, 3), F(6, 7), F(41, 42), F(1)]
        checked = 0
        for b1 in coeffs:
            for b2 in coeffs:
                pair = LocalPair((b1, b2))
                for v1 in range(9):
                    for v2 in range(9):
                        if gcd(v1, v2) != 1:
                            continue
                        assert blowup_chain_coeff(
                            b1, b2, (v1, v2)
                        ) == pullback_coeff(pair, (v1, v2))
                        checked += 1
        assert checked >= 36 * 40


def _random_instances(count):
    rng = random.Random(0x5BDD)
    values = [F(0), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(6, 7), F(41, 42)]
    for _ in range(count):
        n = rng.choice([2, 2, 2, 3, 3])
        pool = (
            [F(0), F(1, 2), F(2, 3), F(6, 7), F(41, 42), F(1)]
            if n == 2
            else [F(0), F(1, 2), F(2, 3), F(6, 7), F(1)]
        )
        coeffs = sorted((rng.choice(pool) for _ in range(n)), key=lambda c: c == 1)
        pair = LocalPair(tuple(coeffs))
        devs = {}
        for _ in range(rng.randint(0, 3)):
            vec = tuple(rng.randint(0, 4) for _ in range(n))
            if all(e == 0 for e in vec):
                continue
            vec = primitive_part(vec)
            if sum(1 for e in vec if e) == 1 and max(vec) == 1:
                continue
            devs[vec] = rng.choice(values)
        yield pair, BDivisor(pair.coeffs, devs)


def test_criterion_7_reduction_suite():
    with criterion(7, "randomized reduction suite", 120.0):
        ran = 0
        for model, bdiv in _random_instances(200):
            trace = run_reduction(model, bdiv)
            weights = [s.weight_before for s in trace.steps] + [
                trace.terminated_weight
            ]
            assert all(a > b for a, b in zip(weights, weights[1:]))
            assert trace.terminated_weight == -1
            assert len(trace.steps) <= max(trace.initial_weight, 0) + 1
            report = verify_reduction(trace.final_state)
            assert report.ok, report.violation
            ran += 1
        assert ran == 200


def test_criterion_8_prefixes_and_mld_bruteforce():
    with criterion(8, "prefix-set and mld brute-force equivalence", 30.0):
        rng = random.Random(0xA11CE)
        pool = [F(0), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(6, 7)]
        for _ in range(100):
            n = rng.choice([1, 2, 3])
            coeffs = tuple(rng.choice(pool) for _ in range(n))
            pair = LocalPair(coeffs)

            got = positive_pullback_prefixes(pair)
            bound = max(
                (int(F(2) / (1 - c)) + 2 for c in coeffs), default=2
            )
            naive = [
                v
                for v in product(range(bound + 1), repeat=n)
                if sum((e * (1 - c) for e, c in zip(v, coeffs)), F(0)) < 1
            ]
            assert got == sorted(naive)

            from math import ceil

            a0 = sum((1 - c for c in coeffs), F(0))
            box = [max(1, 2 * ceil(a0 / (1 - c))) for c in coeffs]
            brute = min(
                sum((e * (1 - c) for e, c in zip(v, coeffs)), F(0))
                for v in product(*(range(1, b + 1) for b in box))
            )
            assert mld_origin_minimizer(pair)[0] == brute


def test_criterion_9_dcc_suite():
    with criterion(9, "coefficient-set chain suite", 30.0):
        for q in range(2, 21):
            assert materialize(SumClosure(FiniteSet([standard_coeff(q)]), q), q) == [
                F(k, q) for k in range(q)
            ]
        # the closure of the standard coefficients up to 42/43 lies in
        # (1/L)Z in [0, 1], L = lcm(1..43): finite, so DCC
        truncated = FiniteSet(tuple(standard_coeff(r) for r in range(1, 44)))
        assert dcc_verdict(SumClosure(truncated, denom_bound=2000)).verdict == "DCC"
        # the closure of the standard set holds 1/m, (m-1)/m summed with itself
        # m-2 times: the witness 1/2 > 1/3 > ... descends to 0
        verdict = dcc_verdict(SumClosure(StandardSet(), denom_bound=2000), 40)
        assert verdict.verdict == "NOT_DCC" and verdict.witness.limit == 0
        for e in verdict.witness.elements:
            m = e.denominator
            x = F(m - 1, m)
            for _ in range(m - 2):
                x = x + F(m - 1, m) - 1
            assert e == x == F(1, m)
        members = set(materialize(SumClosure(StandardSet(), denom_bound=41), 41))
        assert set(verdict.witness.elements) <= members
        assert dcc_verdict(StandardSet()).verdict == "DCC"


def test_criterion_10_rounding_comparison():
    with criterion(10, "rounding comparison", 5.0):
        rng = random.Random(0xF100D)
        for _ in range(300):
            den = rng.randint(1, 60)
            num = rng.randint(0, den - 1)
            m = rng.randint(1, 100)
            rep = rounding_comparison([F(num, den)], m)
            assert rep.le
        for r in range(1, 51):
            c = standard_coeff(r)
            for m in range(1, 101):
                assert rounding_comparison([c], m).equal


def test_criterion_11_constants():
    with criterion(11, "explicit constants", 1.0):
        from bdivkit.bounds import effective_constants

        values = effective_constants(2, 1, 1, F(1, 42)).values
        # independent substitution, written out step by step
        n = 2
        eps = F(1)
        gamma_rec = F(2 * n, 1) / eps
        assert gamma_rec == 4 == values["gamma_rec"]
        m_rec = 2 * F(1) * (1 + gamma_rec) ** (n - 1)
        assert m_rec == 10 == values["m_rec"]
        gamma_bir = F(4 * n, 1) / eps
        big_c = 2 * (1 + gamma_bir) ** (n - 1)
        assert big_c == 18 == values["C"]
        assert (big_c * n) ** n == 1296 == values["vol_threshold"]
        x = big_c * n / F(1, 42)
        assert x == 1512
        least = 1514  # least integer strictly greater than 1513
        assert least > x + 1 and least - 1 <= x + 1
        assert values["M_min"] == least
