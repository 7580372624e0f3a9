"""Exponential map, invariant sampling, eigenphase paths, SU projection."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from symsu import (
    DimensionError,
    NotUnitaryError,
    NumericError,
    PauliSum,
    Unitary,
    build_basis,
    compose,
    connectedness_path,
    eig_unitary,
    exp_generator,
    is_invariant,
    load_matrix,
    matrix_from_pairs,
    matrix_to_pairs,
    preset_group,
    project_to_su,
    random_invariant,
    save_matrix,
    symmetrize,
)
from symsu import unitary_ops
from symsu.paulis import PauliString
from symsu.unitary_ops import UNITARITY_TOL, _cluster_indices, _spectral_product, _unitarity_residual

from conftest import dagger, dense_label, dense_sum, fro, identity_unitary

SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def parity_pairs(rng, n: int, count: int, odd_y: bool) -> list[tuple[str, float]]:
    """Random (label, coefficient) pairs whose Y counts are all odd or all even.

    All even gives a real realization, all odd a purely imaginary one.
    """
    pairs = []
    while len(pairs) < count:
        label = "".join(rng.choice(list("IXYZ"), size=n))
        if label.count("Y") % 2 == odd_y:
            pairs.append((label, float(rng.normal())))
    return pairs


def invariant_parity_sum(n: int, group, rng, odd_y: bool, count: int = 4) -> PauliSum:
    """Random combination of invariant basis elements of one Y parity.

    Symmetrized sums have degenerate spectra, so clustering is exercised.
    """
    elements = [e for e in build_basis(n, group).elements
                if e.terms[0][0].to_label().count("Y") % 2 == odd_y]
    picks = rng.choice(len(elements), size=count, replace=False)
    h = None
    for k in picks:
        term = elements[int(k)] * float(rng.normal())
        h = term if h is None else h + term
    return h


def complex_products():
    """Route every product of unitary_ops through complex arithmetic: the oracle
    for the real products it uses from _REAL_PRODUCT_DIM on."""
    return mock.patch.object(unitary_ops, "_REAL_PRODUCT_DIM", 1 << 30)


def real_products():
    """Route every product of unitary_ops through real arithmetic where it can."""
    return mock.patch.object(unitary_ops, "_REAL_PRODUCT_DIM", 1)


def random_unitary(rng, dim: int, real: bool) -> np.ndarray:
    z = rng.normal(size=(dim, dim))
    if not real:
        z = z + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def union_find_clusters(values: np.ndarray, tol: float) -> list[list[int]]:
    """Pairwise single-linkage clustering by union-find: the O(k^2) oracle
    for the sorted sweep of unitary_ops._cluster_indices."""
    k = len(values)
    parent = list(range(k))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = root(i), root(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


class TestUnitaryType:
    def test_residual_cached(self):
        u = Unitary(np.eye(4))
        assert u.unitarity_residual == 0 and u.dim == 4 and u.n == 2

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            Unitary(np.eye(3))

    @pytest.mark.parametrize("dim", [2, 64])  # both routes of the residual kernel
    def test_non_finite_rejected(self, dim):
        # a NaN residual must not pass for a small one
        for bad in (np.nan, np.inf):
            with pytest.raises(NotUnitaryError):
                Unitary(np.full((dim, dim), bad))
            m = np.eye(dim, dtype=complex)
            m[0, 1] = complex(0, bad)
            with pytest.raises(NotUnitaryError):
                Unitary(m)

    def test_pairs_with_non_finite_entries_rejected(self):
        for pairs in ([[[float("nan"), 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, float("inf")]]]):
            with pytest.raises(ValueError, match="finite"):
                matrix_from_pairs(pairs)

    def test_matrix_is_read_only(self):
        u = identity_unitary(1)
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 2.0

    def test_json_pairs_round_trip(self):
        u = random_invariant(2, preset_group("full_swap", 2), seed=5, depth=4)
        again = matrix_from_pairs(matrix_to_pairs(u.matrix))
        assert np.array_equal(again, u.matrix)

    def test_json_pairs_keep_every_bit(self):
        m = np.array([[complex(-0.0, 0.0), 1e-300 + 1e300j], [0.1 - 0.0j, complex(0.0, -0.0)]])
        pairs = matrix_to_pairs(m)
        assert pairs[0][0] == [-0.0, 0.0] and all(type(v) is float for row in pairs for pair in row for v in pair)
        assert matrix_from_pairs(pairs).view(np.float64).tobytes() == m.view(np.float64).tobytes()

    @pytest.mark.parametrize("dim", [0, 1, 2, 7])
    def test_saved_file_is_one_dump_of_the_pairs(self, tmp_path, dim):
        # save_matrix writes row by row; the text is that of one json.dumps
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if dim:
            m[0, 0] = complex(-0.0, 1e300)
        path = tmp_path / "m.json"
        save_matrix(path, m)
        assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_pairs(m))
        if dim:
            assert load_matrix(path).view(np.float64).tobytes() == m.view(np.float64).tobytes()

    @pytest.mark.parametrize("data", [[[[1, 0], [0]], [[0, 0], [1, 0]]],  # ragged
                                      [[[1, 0, 0]]],  # not a pair
                                      [[[1, 0], [0, 0]]],  # not square
                                      [[[1j, 0]]], "text", []])
    def test_pairs_of_another_shape_rejected(self, data):
        with pytest.raises(ValueError, match="matrix data must"):
            matrix_from_pairs(data)


class TestRealProducts:
    """The real-product kernels against the complex products they replace."""

    KINDS = ["real", "complex", "real unitary", "unitary", "just below tol", "just above tol"]

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 64), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    @example(dim=64, kind="just below tol", seed=0)
    @example(dim=64, kind="just above tol", seed=0)
    def test_residual_matches_complex_product(self, dim, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "real":
            m = rng.normal(size=(dim, dim))
        elif kind == "complex":
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        else:
            m = random_unitary(rng, dim, real=kind == "real unitary")
        if kind.startswith("just"):
            # ||s^2 Q Q+ - 1|| = (s^2 - 1) sqrt(dim), 1% from the tolerance
            target = UNITARITY_TOL * (0.99 if "below" in kind else 1.01)
            m = m * np.sqrt(1 + target / np.sqrt(dim))
        oracle = float(np.linalg.norm(m @ m.conj().T - np.eye(dim)))
        for route in (real_products, complex_products):
            with route():
                got = _unitarity_residual(m)
            assert abs(got - oracle) <= 1e-12 * (1 + oracle)
            if kind.startswith("just"):
                assert (got < UNITARITY_TOL) == ("below" in kind)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_real_spectral_product_matches_complex(self, dim, seed):
        rng = np.random.default_rng(seed)
        p = random_unitary(rng, dim, real=True)
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        with real_products():
            got = _spectral_product(p, d)
        oracle = (p.astype(complex) * d) @ p.astype(complex).conj().T
        assert np.abs(got - oracle).max() < 1e-13

    def test_real_route_keeps_checks_at_scale(self):
        # n = 8 is above _REAL_PRODUCT_DIM: an even Y count in every term keeps
        # the eigenvectors real, an odd count keeps them complex
        n = 8
        group = preset_group("cyclic", n)
        pad = "I" * (n - 3)
        chains = {np.float64: [(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],
                  np.complex128: [(pad + "IXY", 0.9), (pad + "IIZ", 0.7)]}

        def run(terms):
            h = None
            for label, c in terms:
                s = symmetrize(PauliString.from_label(label), group) * c
                h = s if h is None else h + s
            u = exp_generator(h, 2.9)
            dtype = eig_unitary(u).eigenvectors.dtype
            return dtype, [connectedness_path(u, t).matrix for t in (0.0, 0.5, 1.0)] + [project_to_su(u).matrix]

        for dtype, terms in chains.items():
            got_dtype, fast = run(terms)
            with complex_products():
                _, oracle = run(terms)
            assert got_dtype == dtype
            for a, b in zip(fast, oracle):
                assert fro(a - b) < 1e-12


class TestExpGenerator:
    def test_zero_angle_is_identity(self):
        u = exp_generator(PauliSum.from_label("X"), 0.0)
        assert fro(u.matrix - np.eye(2)) < 1e-15

    def test_half_turn_around_x(self):
        u = exp_generator(PauliSum.from_label("X"), np.pi)
        assert fro(u.matrix - (-1j) * dense_label("X")) < 1e-14

    def test_commuting_terms_factorize(self):
        alpha = 0.7
        u = exp_generator(PauliSum.from_labels(2, [("XI", 1), ("IX", 1)]), alpha)
        c, s = np.cos(alpha / 2), np.sin(alpha / 2)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        assert fro(u.matrix - np.kron(rx, rx)) < 1e-14

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pairs = [("".join(rng.choice(list("IXYZ"), size=3)), float(rng.normal()))
                     for _ in range(4)]
            h = PauliSum.from_labels(3, pairs)
            alpha = float(rng.uniform(0, 2 * np.pi))
            oracle = expm(-0.5j * alpha * dense_sum(pairs))
            assert fro(exp_generator(h, alpha).matrix - oracle) < 1e-12

    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "complex"])
    def test_expm_oracle_by_y_parity(self, odd_y):
        # an even Y count in every term takes the real eigensolver
        rng = np.random.default_rng(17)
        for n in (1, 3, 5):
            pairs = parity_pairs(rng, n, 4, odd_y)
            alpha = float(rng.uniform(0, 2 * np.pi))
            u = exp_generator(PauliSum.from_labels(n, pairs), alpha)
            assert np.isrealobj(u._spectrum[0]) != odd_y
            assert fro(u.matrix - expm(-0.5j * alpha * dense_sum(pairs))) < 1e-12

    def test_traceless_generator_gives_det_one(self):
        h = PauliSum.from_labels(2, [("XY", 0.4), ("ZI", 1.3), ("YY", -0.2)])
        u = exp_generator(h, 1.1)
        assert abs(np.linalg.det(u.matrix) - 1) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            exp_generator(PauliSum.from_labels(1, [("X", 1j)]), 0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"angle alpha must be finite, got {alpha}"):
            exp_generator(PauliSum.from_label("XX"), alpha)

    def test_commuting_diagram(self, s2):
        # symmetrize then exponentiate lands in the invariant group
        basis = build_basis(2, s2)
        rng = np.random.default_rng(3)
        for e in basis.elements:
            u = exp_generator(e, float(rng.uniform(0, 2 * np.pi)))
            flag, _ = is_invariant(u.matrix, s2, 1e-10)
            assert flag


class TestCompose:
    def test_identity_neutral(self, s2):
        u = random_invariant(2, s2, seed=0, depth=3)
        assert fro(compose(u, identity_unitary(2)).matrix - u.matrix) == 0

    def test_inverse_pair(self, s2):
        u = random_invariant(2, s2, seed=1, depth=3)
        assert fro(compose(u, dagger(u)).matrix - np.eye(4)) < 1e-12

    def test_applies_first_operand_first(self):
        a = Unitary(SWAP)
        b = exp_generator(PauliSum.from_label("ZI"), 0.4)
        assert fro(compose(a, b).matrix - b.matrix @ SWAP) == 0

    def test_invariant_product_stays_invariant(self, s2):
        u1 = random_invariant(2, s2, seed=10, depth=6)
        u2 = random_invariant(2, s2, seed=11, depth=6)
        flag, defect = is_invariant(compose(u1, u2).matrix, s2, 1e-11)
        assert flag and defect < 1e-11

    def test_product_invariance_at_scale(self, s3):
        for seed in range(20):
            u1 = random_invariant(3, s3, seed=seed, depth=4)
            u2 = random_invariant(3, s3, seed=1000 + seed, depth=4)
            flag, _ = is_invariant(compose(u1, u2).matrix, s3, 3e-10)
            assert flag


class TestRandomInvariant:
    def test_depth_zero_is_identity(self, s2):
        u = random_invariant(2, s2, seed=9, depth=0)
        assert fro(u.matrix - np.eye(4)) == 0

    def test_swap_defect_small(self, s2):
        u = random_invariant(2, s2, seed=1, depth=8)
        _, defect = is_invariant(u.matrix, s2, 1e-10)
        assert defect < 1e-10

    def test_seed_determinism(self, s2):
        a = random_invariant(2, s2, seed=42, depth=8)
        b = random_invariant(2, s2, seed=42, depth=8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self, s2):
        a = random_invariant(2, s2, seed=1, depth=8)
        b = random_invariant(2, s2, seed=2, depth=8)
        assert fro(a.matrix - b.matrix) > 1e-3


class TestBasisSpectra:
    """Each element's eigenpairs are kept on its basis; the exponentials
    built from them are bit for bit those of exp_generator."""

    CASES = [(preset, n) for preset in ("full_swap", "cyclic", "dihedral") for n in (2, 3, 4, 5)]

    @pytest.mark.parametrize("preset, n", CASES)
    def test_random_invariant_matches_explicit_product(self, preset, n):
        group = preset_group(preset, n)
        basis = build_basis(n, group)
        for seed in range(3):  # later seeds draw elements whose spectra are kept
            rng = np.random.default_rng(seed)
            oracle = np.eye(1 << n, dtype=complex)
            for _ in range(8):
                k = int(rng.integers(len(basis)))
                alpha = float(rng.uniform(0.0, 2.0 * np.pi))
                oracle = exp_generator(basis.elements[k], alpha).matrix @ oracle
            u = random_invariant(n, group, seed, 8, basis=basis)
            assert np.array_equal(u.matrix, oracle)

    @pytest.mark.parametrize("preset, n", CASES)
    def test_element_factor_matches_exp_generator(self, preset, n):
        basis = build_basis(n, preset_group(preset, n))
        rng = np.random.default_rng(n)
        for k, element in enumerate(basis.elements):
            alpha = float(rng.uniform(0.0, 2.0 * np.pi))
            oracle = exp_generator(element, alpha).matrix
            for _ in range(2):  # the second call reads the kept spectrum
                assert np.array_equal(unitary_ops._basis_exp(basis, k, alpha).matrix, oracle)
        real = [np.isrealobj(v) for _, v in basis._spectra.values()]
        assert len(real) == len(basis) and any(real) and not all(real)

    def test_kept_spectra_stop_at_the_byte_budget(self, s3, monkeypatch):
        full = build_basis(3, s3)
        expected = random_invariant(3, s3, seed=2, depth=10, basis=full).matrix
        monkeypatch.setattr(unitary_ops, "_SPECTRA_BYTES", 2 * 16 * 4 ** 3)  # two entries
        capped = build_basis(3, s3)
        u = random_invariant(3, s3, seed=2, depth=10, basis=capped)
        assert len(capped._spectra) <= 2 < len(full._spectra)
        assert np.array_equal(u.matrix, expected)

    def test_kept_spectra_are_read_only(self, s2):
        basis = build_basis(2, s2)
        u = unitary_ops._basis_exp(basis, 0, 0.3)
        _, v = basis._spectra[0]
        assert u._spectrum[0] is v and not v.flags.writeable

    def test_filled_basis_compares_as_fresh(self, s3):
        fresh, filled = build_basis(3, s3), build_basis(3, s3)
        random_invariant(3, s3, seed=0, depth=8, basis=filled)
        assert filled._spectra and not fresh._spectra
        assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)


class TestEigUnitary:
    def test_swap_spectrum(self):
        dec = eig_unitary(Unitary(SWAP))
        assert np.allclose(sorted(dec.thetas), [0, 0, 0, np.pi], atol=1e-12)
        assert fro(dec.reconstruct() - SWAP) < 1e-12
        p = dec.eigenvectors
        assert fro(p.conj().T @ p - np.eye(4)) < 1e-12
        assert sorted(stop - start for start, stop in dec.clusters) == [1, 3]

    def test_diagonal_input(self):
        d = np.diag(np.exp(1j * np.array([0.0, np.pi / 2])))
        dec = eig_unitary(Unitary(d))
        assert np.allclose(sorted(dec.thetas), [0, np.pi / 2], atol=1e-12)
        assert fro(dec.reconstruct() - d) < 1e-12

    def test_within_cluster_thetas_identical(self, s2):
        u = random_invariant(2, s2, seed=8, depth=6)
        dec = eig_unitary(u)
        for start, stop in dec.clusters:
            assert len(set(dec.thetas[start:stop])) == 1

    def test_reconstruction_random_invariant(self, s2):
        for seed in range(8):
            u = random_invariant(2, s2, seed=seed, depth=6)
            dec = eig_unitary(u)
            assert fro(dec.reconstruct() - u.matrix) < 1e-9
            p = dec.eigenvectors
            assert fro(p.conj().T @ p - np.eye(4)) < 1e-9

    def test_hermitian_unitary(self):
        # Y is both Hermitian and unitary; the imaginary pencil part vanishes
        y = np.array([[0, -1j], [1j, 0]])
        dec = eig_unitary(Unitary(y))
        assert np.allclose(sorted(dec.thetas), [0, np.pi], atol=1e-12)
        assert fro(dec.reconstruct() - y) < 1e-12

    def test_branch_cut_degeneracy(self):
        # eigenvalues straddling the -1 point of the circle merge into one cluster
        eps = 1e-12
        d = np.diag([np.exp(1j * (np.pi - eps)), np.exp(1j * (-np.pi + eps)), 1.0, 1.0])
        dec = eig_unitary(Unitary(d))
        assert fro(dec.reconstruct() - d) < 1e-9
        assert len(dec.clusters) == 2

    def test_non_unitary_input_names_both_residuals(self):
        with pytest.raises(NumericError, match=r"reconstruction residual 1\.000e\+00, "
                                               r"orthonormality residual \S+, target 1\.0e-09"):
            eig_unitary(np.diag([1.0, 2.0]))

    def test_hermitian_eigensolves_only(self, monkeypatch):
        # Both routes are eigh outputs, orthonormal as they come: no general
        # eigensolve and no per-cluster QR, even for a degenerate spectrum.
        def refuse(*_, **__):
            raise AssertionError("a general eigensolve or a QR ran")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        h = symmetrize(PauliString.from_label("XIIIII"), preset_group("full_swap", 6))
        u = exp_generator(h, 0.9)
        decs = [eig_unitary(u.matrix)]  # no stored spectrum: the Cayley route
        monkeypatch.setattr(unitary_ops, "_cayley_decomposition", refuse)
        decs.append(eig_unitary(u))  # the stored route alone
        for dec in decs:
            assert len(dec.clusters) == 7  # eigenvalues of X1 + ... + X6: -6, -4, ..., 6
            p = dec.eigenvectors
            assert fro(p.conj().T @ p - np.eye(64)) < 1e-12
            assert fro(dec.reconstruct() - u.matrix) < 1e-10


class TestClusterIndices:
    # Gaps are multiples of tol kept clear of 1, so rounding cannot decide a link.
    @settings(max_examples=200, deadline=None)
    @given(tol=st.sampled_from([1e-8, 1e-4, 1e-2]),
           start=st.one_of(st.floats(-np.pi, np.pi), st.floats(np.pi - 8e-8, np.pi)),
           gaps=st.lists(st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 1000.0)), max_size=24),
           seed=st.integers(0, 1 << 16))
    @example(tol=1e-8, start=np.pi - 2e-8, gaps=[0.6] * 6, seed=0)  # a 3.6 tol chain across -1
    @example(tol=1e-8, start=0.3, gaps=[0.0] * 9, seed=1)  # one cluster
    @example(tol=1e-2, start=-3.0, gaps=[50.0] * 12, seed=2)  # all distinct, round the circle
    def test_sweep_matches_union_find(self, tol, start, gaps, seed):
        angles = start + tol * np.concatenate(([0.0], np.cumsum(gaps)))
        # the gap that closes the circle must be clear of tol as well
        assume(angles[-1] - angles[0] < 2 * np.pi - 1.1 * tol)
        values = np.exp(1j * np.random.default_rng(seed).permutation(angles))
        sweep = [m.tolist() for m in _cluster_indices(values, tol)]
        assert all(m == sorted(m) for m in sweep)
        assert sorted(sweep) == sorted(union_find_clusters(values, tol))


class TestStoredSpectrum:
    """exp_generator's eigenpairs serve the path without a second eigensolve."""

    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("alpha", [0.9, 23.0])
    def test_matches_pencil_route(self, odd_y, alpha):
        rng = np.random.default_rng(11)
        sums = [PauliSum.from_labels(n, parity_pairs(rng, n, 5, odd_y)) for n in (2, 4, 6)]
        sums.append(invariant_parity_sum(4, preset_group("full_swap", 4), rng, odd_y))
        for h in sums:
            u = exp_generator(h, alpha)
            if alpha > 10:  # eigenphases wrap past +-pi
                w = np.linalg.eigvalsh(dense_sum([(p.to_label(), c) for p, c in h.terms]))
                assert 0.5 * alpha * np.abs(w).max() > 2 * np.pi
            fresh = Unitary(u.matrix)  # no stored spectrum: the Cayley route
            for t in (0.0, 0.3, 0.5, 0.77, 1.0):
                assert fro(connectedness_path(u, t).matrix
                           - connectedness_path(fresh, t).matrix) < 1e-10

    def test_corrupted_spectrum_falls_back_to_pencil(self):
        pairs = parity_pairs(np.random.default_rng(5), 3, 4, odd_y=False)
        u = exp_generator(PauliSum.from_labels(3, pairs), 1.7)
        v, lambdas = u._spectrum
        u._spectrum = (v, lambdas * np.exp(1e-4j))
        dec = eig_unitary(u)
        pencil = eig_unitary(Unitary(u.matrix))
        assert np.array_equal(dec.eigenvectors, pencil.eigenvectors)
        assert np.array_equal(dec.thetas, pencil.thetas)

    def test_spectrum_released_once_cached(self):
        u = exp_generator(PauliSum.from_labels(2, [("XX", 0.7), ("ZI", 0.4)]), 1.3)
        assert u._spectrum is not None and u._eig is None
        connectedness_path(u, 0.4)
        assert u._spectrum is None and u._eig is not None

    def test_chain_needs_no_pencil_route(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a second eigensolve ran on the Cayley route")

        monkeypatch.setattr(unitary_ops, "_cayley_decomposition", refuse)
        n = 8
        group = preset_group("cyclic", n)
        pad = "I" * (n - 3)
        chains = ([(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],  # real
                  [(pad + "IXY", 0.9), (pad + "IIZ", 0.7)])  # complex
        for terms in chains:
            h = None
            for label, c in terms:
                s = symmetrize(PauliString.from_label(label), group) * c
                h = s if h is None else h + s
            u = exp_generator(h, 2.9)
            assert fro(connectedness_path(u, 0.0).matrix - np.eye(1 << n)) < 1e-9
            half = connectedness_path(u, 0.5)
            assert fro(half.matrix @ half.matrix - u.matrix) < 1e-9
            assert fro(connectedness_path(u, 1.0).matrix - u.matrix) < 1e-9
            assert abs(np.linalg.det(project_to_su(u).matrix) - 1) < 1e-9


class TestConnectednessPath:
    def test_identity_path_is_constant(self):
        u = identity_unitary(2)
        for t in (0.0, 0.3, 1.0):
            assert fro(connectedness_path(u, t).matrix - np.eye(4)) < 1e-12

    def test_scalar_phase_interpolation(self):
        u = Unitary(np.diag([1.0, np.exp(1j * np.pi / 2)]))
        mid = connectedness_path(u, 0.5)
        assert fro(mid.matrix - np.diag([1.0, np.exp(1j * np.pi / 4)])) < 1e-12

    def test_endpoints(self, s3):
        for seed in range(5):
            u = random_invariant(3, s3, seed=seed, depth=5)
            assert fro(connectedness_path(u, 0.0).matrix - np.eye(8)) < 1e-10
            assert fro(connectedness_path(u, 1.0).matrix - u.matrix) < 1e-9

    def test_invariance_along_path(self, s3):
        u = random_invariant(3, s3, seed=21, depth=6)
        for t in np.arange(0.1, 1.0, 0.1):
            flag, _ = is_invariant(connectedness_path(u, float(t)).matrix, s3, 1e-8)
            assert flag

    @pytest.mark.parametrize("dim", [8, 16])
    def test_eigenphases_straddling_the_branch_cut(self, dim):
        # eigenphases near +-pi lie on both sides of the cut at -1, so any mixing
        # of their eigenvectors moves A(1/2) by up to twice the mixing; cos(theta)
        # is flat there, so the real part alone cannot tell them apart
        for seed in range(5):
            rng = np.random.default_rng(seed)
            near = np.pi - np.array([4e-4, 2.5e-4])
            thetas = np.concatenate((near, -near, rng.uniform(-3.0, 3.0, dim - 4)))
            q = random_unitary(rng, dim, real=False)
            a = Unitary((q * np.exp(1j * thetas)) @ q.conj().T)
            oracle = (q * np.exp(0.5j * thetas)) @ q.conj().T
            assert fro(connectedness_path(a, 0.5).matrix - oracle) < 1e-10

    def test_dihedral_path_from_a_file_stays_invariant(self):
        # the matrix alone, as `symsu path` reads it: no stored spectrum
        group = preset_group("dihedral", 6)
        u = Unitary(random_invariant(6, group, seed=8, depth=6).matrix)
        for t in np.linspace(0.0, 1.0, 11):
            assert is_invariant(connectedness_path(u, float(t)).matrix, group, 1e-9)[0]

    def test_lipschitz_continuity(self, s2):
        u = random_invariant(2, s2, seed=4, depth=6)
        dec = eig_unitary(u)
        bound = float(np.sum(np.abs(dec.thetas)))
        delta = 1e-4
        for t in (0.0, 0.25, 0.5, 0.9):
            step = fro(connectedness_path(u, t + delta).matrix
                       - connectedness_path(u, t).matrix)
            assert step <= bound * delta * (1 + 1e-8)

    def test_domain_error(self, s2):
        u = random_invariant(2, s2, seed=4, depth=3)
        with pytest.raises(ValueError):
            connectedness_path(u, 1.2)
        with pytest.raises(ValueError):
            connectedness_path(u, -0.1)

    def test_decomposition_cached(self, s2):
        u = random_invariant(2, s2, seed=4, depth=3)
        connectedness_path(u, 0.2)
        first = u._eig
        connectedness_path(u, 0.7)
        assert u._eig is first


class TestProjectToSu:
    def test_det_one_input_unchanged(self, s2):
        u = random_invariant(2, s2, seed=2, depth=5)  # traceless generators, det 1
        projected = project_to_su(u)
        assert fro(projected.matrix - u.matrix) < 1e-12

    def test_scalar_case(self):
        u = Unitary(1j * np.eye(2))
        projected = project_to_su(u)
        assert abs(np.linalg.det(projected.matrix) - 1) < 1e-12

    def test_det_and_defect(self, s3):
        phase = np.exp(0.3j)
        u = Unitary(phase * random_invariant(3, s3, seed=6, depth=5).matrix)
        projected = project_to_su(u)
        assert abs(np.linalg.det(projected.matrix) - 1) < 1e-10
        _, before = is_invariant(u.matrix, s3, 1e-8)
        _, after = is_invariant(projected.matrix, s3, 1e-8)
        assert abs(before - after) < 1e-12
