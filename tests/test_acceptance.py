"""Acceptance criteria, one test per criterion, each printing a pass line.

Criterion 8 (results not reproducible at desk scale) is empty by
construction: every quantitative claim the package makes is checked
exactly somewhere in this module or the unit suite, so no test is
needed for it.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines
and timings.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from qcliff import AlgebraPresentation, classify_presentation, complete, rho
from qcliff.decompose import decompose
from qcliff.represent import build_irrep, pushforward
from qcliff.solve import presentation_from, solve
from qcliff.structure import classification_grid, classify, irrep_dimension_rows

from helpers import (
    all_characters,
    all_presentations,
    check_hr_bound,
    constant_pattern,
    grow_anti_amicable_family,
    popcount_gram,
    quaternion_presentation,
    random_block_word,
    random_monomial_matrix,
    random_sym_or_skew_monomial,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: int, label: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_low_dimensional_isomorphisms():
    start = time.perf_counter()
    cases = [
        (AlgebraPresentation((-1,)), "^1 C(1)", 1, 2),
        (AlgebraPresentation((1,)), "^2 R(1)", 2, 1),
        (quaternion_presentation(), "^1 H(1)", 1, 4),
        (AlgebraPresentation((-1, 1), [(0, 1)]), "^1 R(2)", 1, 2),
        (AlgebraPresentation((1, -1), [(0, 1)]), "^1 R(2)", 1, 2),
        (AlgebraPresentation((1, 1), [(0, 1)]), "^1 R(2)", 1, 2),
    ]
    for pres, label, num, order in cases:
        wt = classify_presentation(pres)
        assert wt.label == label
        assert (wt.num_irreps, wt.irrep_order) == (num, order)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "low-dimensional isomorphism table", elapsed)


def test_criterion_2_classification_grid_reproduction():
    start = time.perf_counter()
    grid = classification_grid(8, 8)
    rendered = "\n".join(" ".join(row) for row in grid) + "\n"
    golden = (FIXTURES / "classification_grid.txt").read_text(encoding="utf-8")
    assert rendered == golden
    assert sum(len(row) for row in grid) == 81
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "81-entry classification grid", elapsed)


def test_criterion_3_irreducible_dimension_tables():
    start = time.perf_counter()
    rows = irrep_dimension_rows((2, 4, 8))
    rendered = "\n".join(f"{p} {q} {label} {order}" for p, q, label, order in rows) + "\n"
    golden = (FIXTURES / "irrep_dimensions.txt").read_text(encoding="utf-8")
    assert rendered == golden
    by_pq = {(p, q): order for p, q, _, order in rows}
    assert by_pq[(1, 3)] == 4
    assert by_pq[(5, 3)] == 8
    assert by_pq[(1, 1)] == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "irreducible dimension tables", elapsed)


def test_criterion_4_exhaustive_desk_scale_soundness():
    start = time.perf_counter()
    presentations = 0
    representations = 0
    for m in range(1, 5):
        for P in all_presentations(m):
            presentations += 1
            D = decompose(P)
            D.validate()
            wt = classify(D)
            assert wt.total_dimension() == 2**m
            count = 0
            for character in all_characters(D):
                rep = pushforward(build_irrep(D, character))
                rep.verify()
                assert rep.order == wt.irrep_order
                count += 1
            assert count == wt.num_irreps
            representations += count
    assert presentations == 2 + 8 + 64 + 1024
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        4,
        f"soundness sweep over {presentations} presentations / "
        f"{representations} representations",
        elapsed,
    )


def test_criterion_5_hadamard_pipeline():
    start = time.perf_counter()
    for m in (1, 2, 3, 4):
        bundle = complete(m)
        r = bundle.report
        assert r.disjoint_supports and r.transversal_sum
        assert r.a_orthogonal and r.a_lambda
        assert r.b_lambda and r.b_gram_sum
        assert r.h_matches_terms and r.hadamard
        n, b = bundle.n, bundle.b
        hh = popcount_gram(bundle.H.array)
        assert np.array_equal(hh, n * b * np.eye(n * b, dtype=np.int64))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "plug-in pipeline m=1..4 with exact verification", elapsed)


def test_criterion_6_anti_amicable_minimum():
    start = time.perf_counter()
    expected = {4: 4, 8: 8, 16: 128}
    for n, want in expected.items():
        result = solve(constant_pattern(n, -1))
        assert result.b == want
        assert rho(result.b) == n
        hr = check_hr_bound(result.D)
        assert hr.passed and hr.size == n
    # brute-force certification for the small sizes: sweep every kappa
    # without the global-flip quotient
    for n in (2, 3, 4):
        lam = constant_pattern(n, -1)
        brute = min(
            classify_presentation(
                presentation_from(
                    lam, tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(n))
                )
            ).irrep_order
            for bits in range(1 << n)
        )
        assert solve(lam).b == brute
    elapsed = time.perf_counter() - start
    report(6, "anti-amicable minima with brute-force certification", elapsed)


def test_criterion_7_hurwitz_radon_bound_on_random_families():
    # three random candidate models: unrestricted monomials, random signed
    # involutions, and Kronecker words of 2x2 blocks (the last can reach
    # the bound itself, so both sides of the inequality get exercised)
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    samplers = (random_monomial_matrix, random_sym_or_skew_monomial, random_block_word)
    families = 0
    max_sizes = {}
    for order in (2, 4, 8, 16):
        bound = rho(order)
        max_sizes[order] = 0
        for i in range(250):
            family = grow_anti_amicable_family(rng, order, samplers[i % 3])
            assert len(family) <= bound, (
                f"family of {len(family)} anti-amicable matrices at order "
                f"{order} exceeds rho={bound}"
            )
            max_sizes[order] = max(max_sizes[order], len(family))
            families += 1
    assert families == 1000
    # growth sanity: families must actually grow, and the bound must be
    # attained somewhere
    assert all(size >= 2 for size in max_sizes.values())
    assert any(max_sizes[order] == rho(order) for order in max_sizes)
    elapsed = time.perf_counter() - start
    report(
        7,
        f"1000 greedy random families, max sizes {max_sizes}",
        elapsed,
    )
