import warnings

import numpy as np
import pytest

from holonomy.errors import DomainError, LevelCrossingError, StructuralError
from holonomy.linalg import (
    eigh_many,
    expm_skew,
    expm_skew_many,
    level_bounds,
    polar_many,
    require_hermitian,
    require_unitary,
    unitarity_defects,
)
from holonomy.quadrupole import FieldPoint, hamiltonian


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


EPS = np.finfo(float).eps


def random_hermitian_stack(rng, shape, d):
    m = rng.normal(size=(*shape, d, d)) + 1j * rng.normal(size=(*shape, d, d))
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def random_unitary_stack(rng, m, d):
    q, r = np.linalg.qr(rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def taylor_expm_oracle(h, s, terms=30, squarings=8):
    """Independent exp(-i s H) by scaled Taylor series with repeated squaring."""
    a = (-1j * s / 2**squarings) * np.asarray(h, dtype=complex)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestLevelBounds:
    """The one clustering rule: levels of eigenvalue rows (m, d), and the crossing check."""

    def test_quadrupole_equatorial_levels(self):
        h = hamiltonian(FieldPoint(rho=1.0, phi=0.0, zeta=0.0, coupling=1.0))
        vals = eigh_many(h)[0]
        assert level_bounds(vals[None]) == ((0, 1), (1, 3))
        assert vals == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)

    def test_identity_single_level(self):
        assert level_bounds(eigh_many(np.eye(3))[0][None]) == ((0, 3),)

    def test_degenerate_cluster_merged(self):
        # the clustering rule is relative, so the pattern holds at any scale of the matrix
        for scale in (1.0, 1e-6, 1e6):
            vals = eigh_many(scale * np.diag([1.0, 1.0 + 1e-12, 2.0]))[0]
            assert level_bounds(vals[None]) == ((0, 2), (2, 3)), scale

    def test_each_row_at_its_own_scale(self):
        # a 1e-12 relative split merges in both rows, although the second row is 1e12 times larger
        vals = np.array([[1.0, 1.0 + 1e-12, 2.0], [1e12, 1e12 + 1.0, 2e12]])
        assert level_bounds(vals) == ((0, 2), (2, 3))

    def test_crossing_names_first_changed_row(self):
        vals = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(LevelCrossingError, match=r"^level structure changed at sample 2: \(1, 2\) -> \(1, 1, 1\)$"):
            level_bounds(vals)
        assert level_bounds(vals[:2]) == ((0, 1), (1, 3))


class TestEighMany:
    """The closed forms at d = 1 and d = 2 against LAPACK, on eigh's contract."""

    @staticmethod
    def assert_decomposition(h, w, v):
        d = h.shape[-1]
        scale = np.max(np.abs(h), axis=(-2, -1))
        assert w.shape == h.shape[:-1] and v.shape == h.shape
        assert np.all(np.diff(w, axis=-1) >= 0)
        rebuilt = (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        assert np.all(np.max(np.abs(rebuilt - h), axis=(-2, -1)) <= 8 * EPS * scale)
        gram = np.conj(np.swapaxes(v, -1, -2)) @ v
        assert np.max(np.abs(gram - np.eye(d))) <= 8 * EPS
        reference = np.linalg.eigh(h).eigenvalues
        assert np.all(np.max(np.abs(w - reference), axis=-1) <= 8 * EPS * scale)

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_stacks_match_lapack(self, d):
        rng = np.random.default_rng(41)
        h = random_hermitian_stack(rng, (500,), d)
        w, v = eigh_many(h)
        self.assert_decomposition(h, w, v)
        # the random spectra are well separated, so each eigenvector is fixed up to a phase
        projectors = v[..., :, None, :] * np.conj(v[..., None, :, :])
        _, v_ref = np.linalg.eigh(h)
        reference = v_ref[..., :, None, :] * np.conj(v_ref[..., None, :, :])
        assert np.max(np.abs(projectors - reference)) <= 1e-12

    @pytest.mark.parametrize("diagonal, order", [((1.0, 2.0), (0, 1)), ((2.0, -1.0), (1, 0))])
    def test_diagonal_input_gives_unit_vectors(self, diagonal, order):
        w, v = eigh_many(np.diag(diagonal).astype(complex))
        assert np.array_equal(w, np.sort(diagonal))
        assert np.array_equal(np.abs(v), np.eye(2)[:, order])

    def test_multiple_of_identity(self):
        for c in (0.0, 1.0, -3.5e7):
            w, v = eigh_many(c * np.eye(2, dtype=complex))
            assert np.array_equal(w, [c, c])
            assert np.max(np.abs(np.conj(v.T) @ v - np.eye(2))) <= 8 * EPS

    def test_subnormal_entries(self):
        # b/|b| by division gives NaN here; the phase comes from arg b instead
        tiny = 5e-324
        h = np.array([[tiny, tiny - 1j * tiny], [tiny + 1j * tiny, tiny]])
        w, v = eigh_many(h)
        assert np.all(np.isfinite(w)) and np.max(np.abs(np.conj(v.T) @ v - np.eye(2))) <= 8 * EPS

    @pytest.mark.parametrize("gap", [10.0**-k for k in range(6, 16)])
    def test_near_degenerate_pairs(self, gap):
        rng = np.random.default_rng(42)
        u = random_unitary_stack(rng, 200, 2)
        centre = rng.uniform(-1.0, 1.0, 200)
        h = (u * np.stack([centre, centre + gap], axis=-1)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
        self.assert_decomposition(h, *eigh_many(h))

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-8, 9, 2)])
    @pytest.mark.parametrize("d", [1, 2])
    def test_scales(self, scale, d):
        h = scale * random_hermitian_stack(np.random.default_rng(43), (200,), d)
        self.assert_decomposition(h, *eigh_many(h))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("d", [1, 2])
    def test_leading_shapes(self, shape, d):
        h = random_hermitian_stack(np.random.default_rng(44), shape, d)
        w, v = eigh_many(h)
        self.assert_decomposition(h, w, v)
        flat_w, flat_v = eigh_many(h.reshape(-1, d, d))
        assert np.array_equal(w.reshape(-1, d), flat_w) and np.array_equal(v.reshape(-1, d, d), flat_v)

    @pytest.mark.parametrize("d", [1, 2])
    def test_reads_the_lower_triangle(self, d):
        rng = np.random.default_rng(45)
        h = random_hermitian_stack(rng, (50,), d)
        scrambled = h + np.triu(rng.normal(size=(d, d)), 1) + 1j * np.diag(rng.normal(size=d))
        w, v = eigh_many(scrambled)
        assert np.array_equal(w, eigh_many(h)[0]) and np.array_equal(v, eigh_many(h)[1])
        assert np.max(np.abs(w - np.linalg.eigh(scrambled).eigenvalues)) <= 8 * EPS * np.max(np.abs(h))

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_input_gives_real_vectors(self, d):
        m = np.random.default_rng(46).normal(size=(20, d, d))
        h = m + np.swapaxes(m, 1, 2)
        w, v = eigh_many(h)
        assert w.dtype == v.dtype == np.float64
        self.assert_decomposition(h, w, v)

    def test_larger_matrices_are_lapack(self):
        h = random_hermitian_stack(np.random.default_rng(47), (10,), 3)
        w, v = eigh_many(h)
        w_ref, v_ref = np.linalg.eigh(h)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


class TestExpmSkew:
    def test_zero_generator(self):
        assert np.allclose(expm_skew(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)

    def test_diagonal_generator(self):
        s3 = np.diag([1.0, -1.0])
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(expm_skew(s3, np.pi / 2) - expected)) <= 1e-14

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            h = random_hermitian(rng, 3)
            u = expm_skew(h, 0.3)
            assert np.max(np.abs(u - taylor_expm_oracle(h, 0.3))) <= 1e-12

    def test_one_parameter_group_law(self):
        rng = np.random.default_rng(22)
        h = random_hermitian(rng, 4)
        for s, t in [(0.2, 0.5), (-1.0, 0.7), (2.0, 3.0)]:
            lhs = expm_skew(h, s) @ expm_skew(h, t)
            assert np.max(np.abs(lhs - expm_skew(h, s + t))) <= 1e-10

    def test_result_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            assert unitarity_defects(expm_skew(random_hermitian(rng, 6), 1.7))[0] <= 1e-12

    def test_many_from_decomposition(self):
        rng = np.random.default_rng(24)
        hs = np.array([random_hermitian(rng, 3) for _ in range(4)])
        got = expm_skew_many(*np.linalg.eigh(hs), 0.4)
        for k in range(4):
            assert np.max(np.abs(got[k] - expm_skew(hs[k], 0.4))) <= 1e-14


class TestDefects:
    def test_unitarity_defect_identity(self):
        assert np.array_equal(unitarity_defects(np.eye(4)), [0.0])

    def test_unitarity_defect_scaled_identity(self):
        assert unitarity_defects(2.0 * np.eye(3))[0] == pytest.approx(3.0)

    def test_unitarity_defect_non_square(self):
        with pytest.raises(DomainError):
            unitarity_defects(np.ones((2, 3)))

    def test_hermiticity_defect(self):
        assert np.array_equal(require_hermitian(np.eye(2)), np.eye(2))
        with pytest.raises(StructuralError, match="defect 1.000e\\+00"):
            require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            require_hermitian(np.array([[np.inf, 0], [0, 0]], dtype=complex))
        with pytest.raises(DomainError):
            unitarity_defects(np.array([[np.inf, 0], [0, 1]], dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="is empty"):
            require_hermitian(np.zeros((0, 0)))
        with pytest.raises(DomainError, match="is empty"):
            unitarity_defects(np.zeros((0, 2, 2)))

    def test_stacked_unitarity_defects_equal_per_matrix(self):
        rng = np.random.default_rng(37)
        for d in (1, 2, 3):
            m = rng.normal(size=(200, d, d)) + 1j * rng.normal(size=(200, d, d))
            stack = np.linalg.qr(m)[0] * rng.uniform(0.999, 1.001, size=(200, 1, 1))
            defects = unitarity_defects(stack)
            assert defects.shape == (200,)
            assert np.array_equal(defects, [unitarity_defects(u)[0] for u in stack])
            assert np.array_equal(unitarity_defects(stack[0]), defects[:1])

    def test_require_unitary_names_first_bad_matrix(self):
        stack = np.repeat(np.eye(2, dtype=complex)[None], 4, axis=0)
        stack[2] *= 1.1
        with pytest.raises(StructuralError, match="matrix 2 of the stack"):
            require_unitary(stack)
        assert require_unitary(stack[:2]).shape == (2, 2, 2)
        assert require_unitary(stack[0]).shape == (2, 2)

    def test_non_contiguous_views_accepted(self):
        m = np.array([[1, 1j], [-1j, 0]])
        assert np.array_equal(require_hermitian(m.T), m.T)
        assert np.array_equal(unitarity_defects(np.eye(2, dtype=complex)[:, ::-1]), [0.0])
        with pytest.raises(DomainError):
            require_hermitian(np.array([[np.nan, 0], [0, 0]], dtype=complex).T)


def random_complex_stack(rng, shape, l):
    return rng.normal(size=(*shape, l, l)) + 1j * rng.normal(size=(*shape, l, l))


class TestPolarMany:
    """The closed forms at l = 1 and l = 2 against LAPACK's SVD."""

    @staticmethod
    def assert_polar(m, q, smallest, sigma_rel=None):
        l = m.shape[-1]
        scale = np.max(np.abs(m), axis=(-2, -1))
        assert q.shape == m.shape and smallest.shape == m.shape[:-2]
        gram = np.conj(np.swapaxes(q, -1, -2)) @ q
        assert np.max(np.abs(gram - np.eye(l))) <= 1e-14
        # the residual Q^dag M is the positive factor
        p = np.conj(np.swapaxes(q, -1, -2)) @ m
        assert np.all(np.max(np.abs(p - np.conj(np.swapaxes(p, -1, -2))), axis=(-2, -1)) <= 1e-14 * scale)
        hermitian = 0.5 * (p + np.conj(np.swapaxes(p, -1, -2)))
        assert np.all(np.linalg.eigvalsh(hermitian)[..., 0] >= -1e-14 * scale)
        u, s, vh = np.linalg.svd(m)
        assert np.all(np.abs(smallest - s[..., -1]) <= 1e-13 * s[..., 0])
        if sigma_rel is not None:
            assert np.all(np.abs(smallest - s[..., -1]) <= sigma_rel * s[..., -1])
        return u @ vh

    @pytest.mark.parametrize("l", [1, 2])
    def test_random_stacks_match_lapack(self, l):
        m = random_complex_stack(np.random.default_rng(51), (500,), l)
        q, smallest = polar_many(m)
        reference = self.assert_polar(m, q, smallest)
        # the polar factor of an invertible matrix is unique; these are far from singular
        well_conditioned = np.linalg.cond(m) < 1e3
        assert np.max(np.abs(q - reference)[well_conditioned]) <= 1e-12

    @pytest.mark.parametrize("l", [1, 2])
    def test_near_identity(self, l):
        m = np.eye(l) + 1e-3 * random_complex_stack(np.random.default_rng(52), (500,), l)
        q, smallest = polar_many(m)
        assert np.max(np.abs(q - self.assert_polar(m, q, smallest, sigma_rel=1e-13))) <= 4e-15

    @pytest.mark.parametrize("l", [1, 2])
    def test_near_unitary(self, l):
        # the transport regime: singular values in [1 - 1e-7, 1], where sqrt(|M|_F^4 - 4|det M|^2) loses half the digits
        rng = np.random.default_rng(53)
        sigma = rng.uniform(1 - 1e-7, 1.0, size=(500, l))
        m = (random_unitary_stack(rng, 500, l) * sigma[:, None, :]) @ random_unitary_stack(rng, 500, l)
        q, smallest = polar_many(m)
        assert np.max(np.abs(q - self.assert_polar(m, q, smallest, sigma_rel=1e-13))) <= 4e-15

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("l", [1, 2])
    def test_leading_shapes(self, shape, l):
        m = random_complex_stack(np.random.default_rng(54), shape, l)
        q, smallest = polar_many(m)
        self.assert_polar(m, q, smallest)
        flat_q, flat_smallest = polar_many(m.reshape(-1, l, l))
        assert np.array_equal(q.reshape(-1, l, l), flat_q) and np.array_equal(np.reshape(smallest, -1), flat_smallest)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-8, 1e8, 1e200, 1e300])
    @pytest.mark.parametrize("l", [1, 2])
    def test_scales(self, scale, l):
        # det M of the raw entries would underflow or overflow at the extremes
        m = scale * random_complex_stack(np.random.default_rng(55), (200,), l)
        q, smallest = polar_many(m)
        reference = self.assert_polar(m, q, smallest)
        assert np.max(np.abs(q - reference)[np.linalg.cond(m) < 1e3]) <= 1e-12

    @pytest.mark.parametrize(
        "m",
        [np.zeros((1, 1)), np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([[0.0, 0.0], [1j, 3.0]])],
    )
    def test_singular_inputs(self, m):
        # det M = 0: exp(i arg det) is 1, and nothing divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, smallest = polar_many(m)
        assert smallest == 0 and unitarity_defects(q)[0] <= 1e-15
        p = q.conj().T @ m
        assert np.max(np.abs(p - p.conj().T)) <= 1e-15 * np.max(np.abs(m))
        if not m.any():
            assert np.array_equal(q, np.eye(len(m)))

    def test_subnormal_entries(self):
        tiny = 5e-324
        m = np.array([[tiny, 2 * tiny], [3j * tiny, tiny]])
        q, smallest = polar_many(m)
        assert np.max(np.abs(np.conj(q.T) @ q - np.eye(2))) <= 1e-15 and smallest > 0
        q1, smallest1 = polar_many(np.array([[tiny * (1 + 1j)]]))
        assert abs(abs(q1[0, 0]) - 1) <= 1e-15 and smallest1 == abs(tiny * (1 + 1j))

    def test_larger_matrices_are_lapack(self):
        m = random_complex_stack(np.random.default_rng(56), (10,), 3)
        q, smallest = polar_many(m)
        u, s, vh = np.linalg.svd(m)
        assert np.array_equal(q, u @ vh) and np.array_equal(smallest, s[:, -1])


def test_polar_unitary_factor():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q = polar_many(m)[0]
    assert unitarity_defects(q)[0] <= 1e-12
    # residual q^dag m is the positive factor
    p = q.conj().T @ m
    assert np.max(np.abs(p - p.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (p + p.conj().T))) > 0
