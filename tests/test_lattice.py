import random

import pytest

from k3cert.errors import ChainHypothesisError
from k3cert.lattice import (
    LatticeChain,
    adapted_basis,
    bareiss_det,
    gram_rank_disc,
    lattice_contains,
    mat_identity,
    mat_mul,
    row_basis,
    smith_normal_form,
    square_class_equal,
    verify_chain,
)

import data


def _check_snf(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_snf_examples():
    diag = _check_snf(((1, 0), (0, 6)))
    assert diag == [1, 6]
    diag = _check_snf(((2, 4), (6, 8)))
    assert diag == [2, 4]
    diag = _check_snf(((0, 0), (0, 0)))
    assert diag == [0, 0]


def test_snf_random_rectangular():
    rng = random.Random(4)
    for _ in range(100):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = tuple(tuple(rng.randrange(-30, 31) for _ in range(cols))
                  for _ in range(rows))
        diag = _check_snf(m)
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(bareiss_det(m))


def test_row_basis_keeps_isotropic_pairs():
    # [[0, 1], [1, 0]] has no nonsingular 1x1 principal minor, so growing
    # a nonsingular principal block one index at a time would stop at none
    assert row_basis([[0, 1], [1, 0]]) == [0, 1]
    assert row_basis([[0, 0], [0, 0]]) == []
    # H, C1+-, C2+- and D+- of rank3-conics: C1- = 2H - C1+, C2- = 2H -
    # C2+ and D- = H - D+ leave out
    G = [[2, 2, 2, 2, 2, 1, 1], [2, -2, 6, 2, 2, 1, 1], [2, 6, -2, 2, 2, 1, 1],
         [2, 2, 2, -2, 6, 0, 2], [2, 2, 2, 6, -2, 2, 0],
         [1, 1, 1, 0, 2, -2, 3], [1, 1, 1, 2, 0, 3, -2]]
    basis = row_basis(G)
    assert basis == [0, 1, 3, 5]
    assert gram_rank_disc([[G[i][j] for j in basis] for i in basis]) == \
        (4, -72)


def test_gram_rank_disc_examples():
    rank, disc = gram_rank_disc(data.GRAM_C)
    assert rank == 3 and disc is None
    rank, disc = gram_rank_disc([[2, 1], [1, -2]])
    assert (rank, disc) == (2, -5)
    rank, disc = gram_rank_disc([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert (rank, disc) == (0, None)


def test_gram_rank_invariant_under_unimodular_congruence():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randrange(-5, 6)
        m = tuple(tuple(r) for r in m)
        t = _random_unimodular(n, rng)
        tt = tuple(tuple(t[j][i] for j in range(n)) for i in range(n))
        congruent = mat_mul(mat_mul(tt, m), t)
        r1, d1 = gram_rank_disc(m)
        r2, d2 = gram_rank_disc(congruent)
        assert r1 == r2
        if d1 is not None:
            assert d1 == d2  # det T = +-1 enters squared


def _random_unimodular(n, rng):
    m = [list(r) for r in mat_identity(n)]
    for _ in range(6 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randrange(-3, 4)
        for c in range(n):
            m[i][c] += f * m[j][c]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    return tuple(tuple(r) for r in m)


def test_square_class_examples():
    assert square_class_equal(-5, -45)
    assert not square_class_equal(-5, 5)
    assert square_class_equal(12, 3)
    with pytest.raises(ValueError):
        square_class_equal(0, 3)


def test_square_class_is_equivalence():
    rng = random.Random(15)
    vals = [rng.randrange(1, 400) * rng.choice([1, -1]) for _ in range(50)]
    for a in vals:
        assert square_class_equal(a, a)
    for _ in range(50):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert square_class_equal(a, b) == square_class_equal(b, a)
        if square_class_equal(a, b) and square_class_equal(b, c):
            assert square_class_equal(a, c)


def _adapted_chain(p, n, m, rng=None):
    """A chain with the adapted structure, bases obfuscated by column ops."""
    base = _random_unimodular(n, rng) if rng else mat_identity(n)
    bases = []
    for i in range(1, m + 1):
        scaled = tuple(tuple(base[r][c] * (p ** (i - 1) if c == n - 1 else 1)
                             for c in range(n)) for r in range(n))
        if rng:
            scaled = mat_mul(scaled, _random_unimodular(n, rng))
        bases.append(scaled)
    return LatticeChain(p=p, bases=tuple(bases))


def test_adapted_basis_rank_one():
    chain = LatticeChain(p=3, bases=(((1,),), ((3,),), ((9,),)))
    out = adapted_basis(chain)
    assert abs(out.basis[0][0]) == 1


def test_adapted_basis_two_dim_example():
    chain = LatticeChain(p=3, bases=(((1, 0), (0, 1)),
                                     ((1, 0), (0, 3)),
                                     ((1, 0), (0, 9))))
    assert verify_chain(chain)
    out = adapted_basis(chain)
    for i in (1, 2, 3):
        member = out.member_basis(i)
        for col in range(2):
            gen = tuple(member[r][col] for r in range(2))
            assert lattice_contains(chain.bases[i - 1], gen)


def test_chain_with_square_index_rejected():
    chain = LatticeChain(p=3, bases=(((1, 0), (0, 1)), ((3, 0), (0, 3))))
    assert not verify_chain(chain)
    with pytest.raises(ChainHypothesisError):
        adapted_basis(chain)


def test_chain_inclusion_violation_rejected():
    chain = LatticeChain(p=3, bases=(((3, 0), (0, 3)), ((1, 0), (0, 1))))
    assert not verify_chain(chain)


def test_single_member_chain_ok():
    chain = LatticeChain(p=5, bases=(((2, 1), (0, 1)),))
    assert verify_chain(chain)
    out = adapted_basis(chain)
    assert out.member_basis(1) == chain.bases[0]


def test_condition_three_violation_rejected():
    # indices are p at each step but Lambda_1/Lambda_3 is (Z/3)^2:
    # step 1 drops the last coordinate, step 2 drops the first
    chain = LatticeChain(p=3, bases=(((1, 0), (0, 1)),
                                     ((1, 0), (0, 3)),
                                     ((3, 0), (0, 3))))
    assert not verify_chain(chain)
    with pytest.raises(ChainHypothesisError):
        adapted_basis(chain)


def test_adapted_basis_fifty_random_chains():
    rng = random.Random(77)
    done = 0
    while done < 50:
        p = rng.choice([3, 5, 7])
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 7)
        chain = _adapted_chain(p, n, m, rng)
        assert verify_chain(chain)
        out = adapted_basis(chain)
        # direct verification: membership both ways and index p^(i-1)
        for i in range(1, m + 1):
            member = out.member_basis(i)
            for col in range(n):
                gen = tuple(member[r][col] for r in range(n))
                assert lattice_contains(chain.bases[i - 1], gen)
                gen2 = tuple(chain.bases[i - 1][r][col] for r in range(n))
                assert lattice_contains(member, gen2)
            assert abs(bareiss_det(member)) == abs(bareiss_det(chain.bases[i - 1]))
        done += 1
