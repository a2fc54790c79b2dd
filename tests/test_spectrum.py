import math
from fractions import Fraction

import pytest

from warpdirac import ConfigurationError, ModeIndex, band_index, lp_band, sphere_spectrum

from references import laplace_eigenvalue_check


def test_n3_spectrum_is_signed_integers():
    mus = sorted(m.mu for m in sphere_spectrum(3, 3))
    assert mus == [-3, -2, -1, 1, 2, 3]
    # the cap is exact: one just below a mode leaves that mode out
    assert sorted(m.mu for m in sphere_spectrum(3, 2.9999999)) == [-2, -1, 1, 2]
    assert len(sphere_spectrum(3, 8)) == 16


def test_n3_multiplicity():
    mode = ModeIndex(2, 3)
    assert mode.multiplicity == 4
    assert ModeIndex(-5, 3).multiplicity == 10
    assert all(m.multiplicity == 2 * abs(m.mu) for m in sphere_spectrum(3, 64))


def test_n5_spectrum_starts_at_two():
    mus = sorted(m.mu for m in sphere_spectrum(5, 2))
    assert mus == [-2, 2]


def test_n4_spectrum_half_integers():
    mus = sorted(m.mu for m in sphere_spectrum(4, 3))
    assert mus == [Fraction(-5, 2), Fraction(-3, 2), Fraction(3, 2), Fraction(5, 2)]


def test_empty_below_gap():
    assert sphere_spectrum(5, 1.5) == []


def test_spectrum_symmetry():
    for n in (3, 4, 5):
        modes = sphere_spectrum(n, 10)
        mus = {m.mu for m in modes}
        mult = {m.mu: m.multiplicity for m in modes}
        for mu in mus:
            assert -mu in mus
            assert mult[mu] == mult[-mu]


def test_degrees_by_sign():
    plus = ModeIndex(2, 3)
    assert (plus.degree_plus, plus.degree_minus) == (1, 2)
    minus = ModeIndex(-2, 3)
    assert (minus.degree_plus, minus.degree_minus) == (2, 1)
    one = ModeIndex(1, 3)
    assert (one.degree_plus, one.degree_minus) == (0, 1)


def test_mode_index_derives_its_degrees_and_refuses_a_mu_outside_the_spectrum():
    """(mu, n) is all a mode stores: the degrees come from them, so the
    Laplacian identity holds for every mode that builds."""
    assert ModeIndex(Fraction(1), 3) == ModeIndex(1, 3)
    assert (ModeIndex(Fraction(-5, 2), 4).degree_plus,
            ModeIndex(Fraction(-5, 2), 4).degree_minus) == (2, 1)
    for mode in (ModeIndex(Fraction(1), 3), ModeIndex(Fraction(3), 5)):
        for component in ("+", "-"):
            lhs, rhs = laplace_eigenvalue_check(mode, component)
            assert lhs == rhs
    for mu, n in ((Fraction(1), 5), (Fraction(1, 2), 3), (Fraction(3, 2), 3),
                  (Fraction(0), 3), (Fraction(1), 2)):
        with pytest.raises(ConfigurationError):
            ModeIndex(mu, n)


def test_multiplicity_table_for_higher_dimensions():
    tables = {4: {Fraction(3, 2): 2, Fraction(5, 2): 6, Fraction(7, 2): 12, Fraction(9, 2): 20},
              5: {2: 4, 3: 16, 4: 40, 5: 80}}
    for n, table in tables.items():
        for mu, count in table.items():
            assert ModeIndex(mu, n).multiplicity == ModeIndex(-mu, n).multiplicity == count


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_multiplicities_obey_weyls_law(n):
    """Eigenvalues with |mu| <= lam, counted with multiplicity, grow like the
    spinor rank 2^floor((n-1)/2) times |B^(n-1)| |S^(n-1)| lam^(n-1) / (2 pi)^(n-1),
    which is 2^(floor((n-1)/2) + 1) lam^(n-1) / (n-1)!."""
    lam = Fraction(n - 1, 2) + 400
    modes = sphere_spectrum(n, lam)
    assert all(type(m.multiplicity) is int for m in modes)
    count = sum(m.multiplicity for m in modes)
    weyl = 2 ** ((n - 1) // 2 + 1) * lam ** (n - 1) / math.factorial(n - 1)
    assert count / weyl == pytest.approx(1.0, abs=0.01)


def test_invalid_modes_rejected():
    with pytest.raises(ConfigurationError):
        ModeIndex(0, 3)
    with pytest.raises(ConfigurationError):
        ModeIndex(Fraction(1, 2), 3)
    with pytest.raises(ConfigurationError):
        ModeIndex(1, 5)  # below the n=5 gap
    with pytest.raises(ConfigurationError):
        ModeIndex(1.3, 3)  # its exact binary value is no half-integer
    with pytest.raises(ConfigurationError):
        ModeIndex(1.5000000000000002, 4)  # one ulp above 3/2
    for mu in (math.nan, math.inf, "x", "1/0"):
        with pytest.raises(ConfigurationError, match="is not a rational number"):
            ModeIndex(mu, 3)
    for cap in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="is not a rational number"):
            sphere_spectrum(3, cap)
    assert ModeIndex("3/2", 4).mu == Fraction(3, 2)


def test_tables_refuse_a_dimension_band_or_component_outside_their_range():
    with pytest.raises(ConfigurationError, match="n must be >= 3"):
        sphere_spectrum(2, 3)
    with pytest.raises(ConfigurationError, match="n must be >= 3"):
        lp_band(2, 0)
    with pytest.raises(ConfigurationError, match="band index must be >= 0"):
        lp_band(3, -1)
    with pytest.raises(ConfigurationError, match="component must be"):
        laplace_eigenvalue_check(ModeIndex(1, 3), "x")


@pytest.mark.parametrize("n,j,a,b", [
    (3, 0, 1, 3),
    (3, 2, 4, 9),
    (4, 1, Fraction(5, 2), Fraction(11, 2)),
    (5, 0, 2, 4),
])
def test_band_edges(n, j, a, b):
    band = lp_band(n, j)
    assert band.a == a and band.b == b
    assert band.a < band.b


def test_band_index_smallest():
    assert band_index(ModeIndex(1, 3)) == 0
    assert band_index(ModeIndex(3, 3)) == 0  # bands overlap; smallest j wins
    assert band_index(ModeIndex(4, 3)) == 1
    for n in range(3, 9):  # against the band definition, |mu| <= 1024
        bands = [lp_band(n, j) for j in range(12)]
        for mode in sphere_spectrum(n, 1024):
            assert band_index(mode) == next(b.j for b in bands if b.a <= mode.abs_mu <= b.b)


@pytest.mark.parametrize("mu,component,expected", [
    (2, "+", 2), (1, "+", 0), (-1, "-", 0), (3, "-", 12),
])
def test_laplace_eigenvalue_examples_n3(mu, component, expected):
    lhs, rhs = laplace_eigenvalue_check(ModeIndex(mu, 3), component)
    assert lhs == rhs == expected


def test_laplace_eigenvalue_identity_exhaustive():
    for n in (3, 4, 5):
        for mode in sphere_spectrum(n, 64):
            for component in ("+", "-"):
                lhs, rhs = laplace_eigenvalue_check(mode, component)
                assert lhs == rhs


def test_band_degree_consistency_exhaustive():
    """Degrees outside a band sit entirely beyond its dyadic edges."""
    for n in (3, 4, 5):
        modes = sphere_spectrum(n, 64)
        for j in range(6):
            band = lp_band(n, j)
            for mode in modes:
                degs = (mode.degree_plus, mode.degree_minus)
                if mode.abs_mu > band.b:
                    assert all(d >= 2 ** (j + 1) for d in degs)
                if mode.abs_mu < band.a:
                    assert all(d < 2**j for d in degs)
