"""Exponential map, invariant sampling, eigenphase paths, SU projection."""

import itertools
import json
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from symsu import (
    CapacityError,
    DimensionError,
    InvariantBasis,
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
from symsu import cli, unitary_ops
from symsu.paulis import PauliString
from symsu.unitary_ops import (
    CLUSTER_TOL,
    UNITARITY_TOL,
    _assemble,
    _cluster_indices,
    _spectral_product,
    _unitarity_residual,
)

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


def one_sum_spectrum(h: PauliSum, alpha: float = 0.3) -> tuple:
    """(w, v, cosets) of exp_generator's one-sum solve of h, checked against the Unitary it returns."""
    w, v, cosets = unitary_ops._sum_spectra(h.n, h.x, h.z, h.coeffs, np.zeros(len(h), dtype=np.int64), 1)[0]
    u = exp_generator(h, alpha)
    assert u._spectrum[0].tobytes() == v.tobytes()
    assert u._spectrum[1].tobytes() == np.exp(-0.5j * alpha * w).tobytes()
    assert u._cosets is cosets is None or np.array_equal(u._cosets, cosets)
    return w, v, cosets


def all_spectra(basis) -> list:
    """_basis_spectra of every element of the basis, a chunk (_chunk) of indices per call."""
    ks, chunk = range(len(basis)), unitary_ops._chunk(1 << basis.n)
    return [spectrum for start in range(0, len(ks), chunk)
            for spectrum in unitary_ops._basis_spectra(basis, ks[start:start + chunk])]


def drawn(n: int, group, seeds, depth: int, basis=None):
    """Each seed's draw as a Unitary, as verify's path suite maps them over _draw_stacks."""
    return map(Unitary, itertools.chain.from_iterable(unitary_ops._draw_stacks(n, group, seeds, depth, basis)))


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
    def test_repr(self):
        assert repr(Unitary(SWAP)) == "Unitary(dim=4, residual=0.00e+00)"

    def test_residual_cached(self):
        u = Unitary(np.eye(4))
        assert u.unitarity_residual == 0 and u.dim == 4 and u.n == 2

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            Unitary(np.eye(3))
        with pytest.raises(DimensionError, match=r"expected a square matrix, got shape \(2, 4\)"):
            Unitary(np.eye(4)[:2])

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError, match="dimension 0 is not a power of two"):
            Unitary(np.zeros((0, 0)))

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

    def test_past_the_qubit_cap_refused(self):
        # The cap is held where the sum is realized, before any matrix is allocated.
        with pytest.raises(CapacityError, match="11 qubits exceeds the cap of 10"):
            exp_generator(PauliSum.from_label("X" * 11), 0.5)

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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="dimensions differ: 2 vs 4"):
            compose(identity_unitary(1), identity_unitary(2))

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

    def test_negative_depth_refused(self):
        with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
            random_invariant(3, preset_group("cyclic", 3), 0, -1)

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

    def test_empty_basis_rejected(self, s2):
        empty = InvariantBasis(2, s2, np.full(16, -1))
        with pytest.raises(ValueError, match="the invariant basis is empty"):
            random_invariant(2, s2, 0, 4, basis=empty)

    def test_basis_of_a_smaller_group_rejected(self):
        cyclic = preset_group("cyclic", 3)
        with pytest.raises(ValueError, match="a basis of group 'trivial' is not invariant under 'cyclic'"):
            random_invariant(3, cyclic, 0, 4, basis=build_basis(3, preset_group("trivial", 3)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_basis_of_a_larger_group_accepted(self, n):
        cyclic = preset_group("cyclic", n)
        u = random_invariant(n, cyclic, 0, 4, basis=build_basis(n, preset_group("full_swap", n)))
        assert is_invariant(u.matrix, cyclic, 1e-9)[0]


class TestBasisSpectra:
    """Each element's eigenpairs are kept on its basis; the exponentials
    _element_exps builds from them are bit for bit those of exp_generator."""

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

    @pytest.mark.parametrize("preset, n", CASES + [("full_swap", 6)])
    def test_element_factor_matches_exp_generator(self, preset, n, monkeypatch):
        basis = build_basis(n, preset_group(preset, n))
        d, dim = len(basis), 1 << n
        alphas = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, d).tolist()
        oracle = [exp_generator(element, alpha).matrix.tobytes() for element, alpha in zip(basis.elements, alphas)]
        for chunk in (None, 3):  # the default chunks solve every spectrum; chunks of 3 read them kept
            if chunk:  # from 64 on a chunk is one element either way
                monkeypatch.setattr(unitary_ops, "_STACK_BYTES", chunk * 16 * dim * dim)
            step = unitary_ops._chunk(dim)
            stacks = list(unitary_ops._element_exps(basis, range(d), alphas))
            assert [len(stack) for stack in stacks] == [min(step, d - start) for start in range(0, d, step)]
            assert [m.tobytes() for m in itertools.chain.from_iterable(stacks)] == oracle
        real = [np.isrealobj(v) for _, v, _ in basis._spectra.values()]
        assert len(real) == d and any(real) and not all(real)
        assert any(cosets is not None for *_, cosets in basis._spectra.values()) == (n == 6)  # scattered

    def test_kept_spectra_stop_at_the_byte_budget(self, monkeypatch):
        group = preset_group("cyclic", 6)
        full = build_basis(6, group)
        expected = random_invariant(6, group, seed=2, depth=12, basis=full).matrix
        held = [sum(a.nbytes for a in kept if a is not None) for kept in full._spectra.values()]
        budget = sum(held[:4])
        assert len(held) > 4 and budget < 4 * 16 << 12  # less than four dense complex 64 x 64 matrices
        monkeypatch.setattr(unitary_ops, "_SPECTRA_BYTES", budget)
        capped = build_basis(6, group)
        u = random_invariant(6, group, seed=2, depth=12, basis=capped)
        assert list(capped._spectra) == list(full._spectra)[:4]
        assert np.array_equal(u.matrix, expected)

    def test_kept_spectra_are_read_only(self, s2):
        basis = build_basis(2, s2)
        first, = unitary_ops._basis_spectra(basis, [0])
        assert unitary_ops._basis_spectra(basis, [0])[0] is first is basis._spectra[0]
        for preset, n in (("full_swap", 3), ("cyclic", 4), ("full_swap", 6)):  # blocked ones at n=6
            basis = build_basis(n, preset_group(preset, n))
            got = all_spectra(basis)
            assert len(basis._spectra) == len(basis) and any(c is not None for *_, c in got) == (n == 6)
            for spectrum in basis._spectra.values():
                assert not any(a.flags.writeable for a in spectrum if a is not None)

    def test_filled_basis_compares_as_fresh(self, s3):
        fresh, filled = build_basis(3, s3), build_basis(3, s3)
        random_invariant(3, s3, seed=0, depth=8, basis=filled)
        assert filled._spectra and not fresh._spectra
        assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)

    @pytest.mark.parametrize("preset, n", CASES + [("full_swap", 1), ("trivial", 3), ("cyclic", 6)])
    def test_stacked_spectra_match_one_element_solves(self, preset, n):
        basis = build_basis(n, preset_group(preset, n))
        got = all_spectra(basis)
        assert len(got) == len(basis) and list(basis._spectra) == list(range(len(basis)))
        for k, (w, v, cosets) in enumerate(got):
            ow, ov, ocosets = one_sum_spectrum(basis.elements[k])
            assert w.tobytes() == ow.tobytes() and v.dtype == ov.dtype and v.tobytes() == ov.tobytes()
            assert np.array_equal(cosets, ocosets) if n == 6 else cosets is ocosets is None
            assert basis._spectra[k] is got[k] and not v.flags.writeable

    def test_stacked_spectra_keep_index_order_within_the_budget(self, monkeypatch):
        group = preset_group("dihedral", 5)
        held = [sum(a.nbytes for a in kept if a is not None)
                for kept in unitary_ops._basis_spectra(build_basis(5, group), range(10))]
        monkeypatch.setattr(unitary_ops, "_SPECTRA_BYTES", sum(held[:10]))
        monkeypatch.setattr(unitary_ops, "_STACK_BYTES", 3 * 16 << 10)  # chunks of 3: the first has 2 kept
        basis = build_basis(5, group)
        first, = unitary_ops._basis_spectra(basis, [2])  # kept already: read, not solved again
        assert len(list(unitary_ops._element_exps(basis, range(len(basis)), [0.5] * len(basis)))) == 45
        got = all_spectra(basis)
        assert list(basis._spectra) == [2, 0, 1, *range(3, 10)] and got[2] is first
        for k, (w, v, _) in enumerate(got):
            ow, ov, _ = one_sum_spectrum(basis.elements[k])
            assert w.tobytes() == ow.tobytes() and v.tobytes() == ov.tobytes()

    def test_spectra_solved_one_element_at_a_time_from_64_on(self, monkeypatch):
        counts, realize = [], unitary_ops._realize
        monkeypatch.setattr(unitary_ops, "_realize", lambda *a: counts.append(a[-1]) or realize(*a))
        basis = build_basis(6, preset_group("full_swap", 6))
        stacks = list(unitary_ops._element_exps(basis, range(len(basis)), [0.5] * len(basis)))
        assert len(stacks) == len(basis) == 83
        assert counts == [1] * 83

    def test_repeated_and_kept_indices_solved_once(self, monkeypatch):
        counts, realize = [], unitary_ops._realize
        monkeypatch.setattr(unitary_ops, "_realize", lambda *a: counts.append(a[-1]) or realize(*a))
        basis = build_basis(4, preset_group("dihedral", 4))
        first = unitary_ops._basis_spectra(basis, [5, 2, 5])
        assert counts == [2] and first[0] is first[2] is basis._spectra[5]
        again = unitary_ops._basis_spectra(basis, [2, 7, 5, 7])
        assert counts == [2, 1] and again[0] is first[1] and again[2] is first[0] and again[1] is again[3]
        assert unitary_ops._basis_spectra(basis, []) == [] and counts == [2, 1]


class TestStackedDraws:
    """_draw_stacks: a depth step of a chunk of seeds is one factor stack, checked at
    once, and from _REAL_PRODUCT_DIM on a chunk is one seed whose blocked factor is scattered;
    every product is bit for bit the one-seed one and the explicit exp_generator product."""

    @staticmethod
    def explicit_product(basis, seed, depth):
        rng = np.random.default_rng(seed)
        oracle = np.eye(1 << basis.n, dtype=complex)
        for _ in range(depth):
            k = int(rng.integers(len(basis)))
            oracle = exp_generator(basis.elements[k], float(rng.uniform(0.0, 2.0 * np.pi))).matrix @ oracle
        return oracle

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("preset", ["full_swap", "cyclic", "dihedral", "trivial"])
    def test_products_match_one_seed_draws(self, preset, n, monkeypatch):
        group = preset_group(preset, n)
        basis = build_basis(n, group)
        dim = 1 << n
        monkeypatch.setattr(unitary_ops, "_STACK_BYTES", 3 * 16 * dim * dim)  # chunks of 3 seeds
        for depth in (1, 4):
            seeds = range(10, 17)  # 7 seeds: two full chunks and one of 1
            got = list(drawn(n, group, seeds, depth, basis))
            assert len(got) == len(seeds)
            for seed, u in zip(seeds, got):
                assert isinstance(u, Unitary) and not u.matrix.flags.writeable
                assert np.array_equal(u.matrix, random_invariant(n, group, seed, depth, basis=basis).matrix)
                assert np.array_equal(u.matrix, self.explicit_product(basis, seed, depth))
        if n >= 6:  # the drawn elements' kept spectra include blocked ones, so the scatter ran
            assert any(cosets is not None for _, _, cosets in basis._spectra.values())

    def test_default_chunk_at_five_qubits(self):
        group = preset_group("full_swap", 5)
        basis = build_basis(5, group)
        assert unitary_ops._STACK_BYTES // (16 << 10) == 8
        got = list(drawn(5, group, range(3, 22), 6, basis))  # 19 seeds: chunks 8, 8, 3
        for seed, u in zip(range(3, 22), got, strict=True):
            assert np.array_equal(u.matrix, random_invariant(5, group, seed, 6, basis=basis).matrix)

    @pytest.mark.parametrize("n", [3, 5])
    def test_basis_of_a_larger_group(self, n):
        cyclic = preset_group("cyclic", n)
        basis = build_basis(n, preset_group("full_swap", n))
        got = list(drawn(n, cyclic, range(9), 3, basis))
        for seed, u in enumerate(got):
            assert np.array_equal(u.matrix, self.explicit_product(basis, seed, 3))
            assert is_invariant(u.matrix, cyclic, 1e-9)[0]

    @staticmethod
    def corrupted_basis(n, corrupt):
        """A full_swap basis whose every kept spectrum (w, v, None) is corrupt(w, v)."""
        group = preset_group("full_swap", n)
        basis = build_basis(n, group)
        all_spectra(basis)
        for k, (w, v, cosets) in basis._spectra.items():
            basis._spectra[k] = (*corrupt(w, v), cosets)
        return group, basis

    @staticmethod
    def refusal(route, group, basis, capsys, monkeypatch) -> str:
        """The NotUnitaryError message of the first draws of 4 seeds at depth 3 from the basis, or the one
        line of `verify`, whose exp suite runs first and sweeps the basis in one stack, exiting 2."""
        if route == "draws":
            with pytest.raises(NotUnitaryError) as info:
                next(drawn(3, group, range(4), 3, basis))
            return str(info.value)
        monkeypatch.setattr(cli, "build_basis", lambda n, group: basis)
        assert cli.main(["verify", "--n", "3", "--symmetry", "full_swap"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_orthonormal_factor_stack_refused(self, capsys, monkeypatch):
        # Each factor is 1.5 U for a unitary U, so the first stack of k factors has residual
        # 1.25 sqrt(k dim): k = 4 seeds, or all 19 elements; products after 3 steps would report 1.5^6 - 1.
        group, basis = self.corrupted_basis(3, lambda w, v: (w, v * np.sqrt(1.5)))
        for route, count in (("draws", 4), ("exp suite", 19)):
            message = self.refusal(route, group, basis, capsys, monkeypatch)
            residual = float(re.search(r"= (\S+) exceeds", message).group(1))
            assert residual == pytest.approx(1.25 * np.sqrt(count * 8), rel=1e-3)

    def test_non_finite_factor_refused(self, capsys, monkeypatch):
        def with_nan(w, v):
            w = w.copy()
            w[0] = np.nan
            return w, v
        group, basis = self.corrupted_basis(3, with_nan)
        for route in ("draws", "exp suite"):
            assert "non-finite entry" in self.refusal(route, group, basis, capsys, monkeypatch)

    def test_draws_stay_within_a_memory_bound(self):
        group = preset_group("full_swap", 5)
        basis = build_basis(5, group)
        all_spectra(basis)  # keep every spectrum the draws read
        tracemalloc.start()
        try:
            count = sum(1 for _ in drawn(5, group, range(100), 6, basis))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.5 MB in chunks of 8 seeds; unchunked, every stack of 100 complex 32 x 32 matrices holds 1.6 MB
        assert count == 100 and peak < 2_000_000


class TestComposedPairs:
    """_composed_pairs: per chunk, the draws of seeds[0::2] and of seeds[1::2] and their products,
    one matmul and one check per stack, bit for bit the one-seed draws and their compose."""

    @pytest.mark.parametrize("preset, n", [("full_swap", 2), ("dihedral", 5), ("cyclic", 6)])
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_products_match_compose(self, preset, n, chunk, monkeypatch):
        group = preset_group(preset, n)
        basis = build_basis(n, group)
        if chunk:  # 5 pairs in chunks of 3 below 64: a full chunk and a part
            monkeypatch.setattr(unitary_ops, "_STACK_BYTES", chunk * 16 << 2 * n)
        seeds = range(5, 15)
        stacks = list(unitary_ops._composed_pairs(n, group, seeds, 3, basis))
        step = unitary_ops._chunk(1 << n)
        assert [len(p) for *_, p in stacks] == [min(step, 5 - s) for s in range(0, 5, step)]
        u1, u2, products = (np.concatenate(parts) for parts in zip(*stacks))
        singles = [random_invariant(n, group, seed, 3, basis=basis) for seed in seeds]
        assert len(u1) == len(u2) == len(products) == 5
        for i, (a, b) in enumerate(zip(singles[::2], singles[1::2])):
            assert np.array_equal(u1[i], a.matrix) and np.array_equal(u2[i], b.matrix)
            assert products[i].tobytes() == compose(a, b).matrix.tobytes()

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_unitary_draw_or_product_refused(self, bad, monkeypatch):
        # Draws [1, 2], or draws [D, D^-1] with D = diag(2, 1/2), whose product is the identity.
        d = np.diag([2.0, 0.5]).astype(complex)
        stack = np.stack([d, np.linalg.inv(d)]) if bad == 0 else np.stack([np.eye(2), 2 * np.eye(2)]) + 0j
        monkeypatch.setattr(unitary_ops, "_draw_stacks", lambda _n, _group, seeds, *_: iter([stack[seeds]]))
        with pytest.raises(NotUnitaryError, match="exceeds"):
            next(unitary_ops._composed_pairs(1, None, range(2), 1, None))


class TestPathStack:
    """verify's path points: EigDecomposition._points of one decomposition as one stack, checked
    at once; its one-t case is connectedness_path, with that point's own residual."""

    @staticmethod
    def unitaries():
        for preset, n in (("full_swap", 3), ("dihedral", 5)):
            group = preset_group(preset, n)
            yield from drawn(n, group, range(3), 4)
        yield exp_generator(next(TestFlipBlocks.sums()), 1.3)  # blocked
        yield Unitary(np.diag(np.exp(1j * np.array([0.4, 0.4, -2.0, 3.0]))))  # a cluster of two

    def test_points_match_connectedness_path(self):
        ts = np.linspace(0.0, 1.0, 11)
        for u in self.unitaries():
            dec = eig_unitary(u)
            blocks, cosets = dec._points(ts), dec.cosets
            residual = unitary_ops._checked_residual(blocks)
            assert np.array_equal(cosets, u._cosets) if u._cosets is not None else cosets is None
            points = unitary_ops._scatter(blocks, cosets)
            assert points.shape == (11, u.dim, u.dim)
            own = []
            for t, point in zip(ts, points):
                single = connectedness_path(u, float(t))
                assert point.tobytes() == single.matrix.tobytes()
                assert single.unitarity_residual == unitary_ops._checked_residual(dec._points((float(t),)))
                recount = Unitary(unitary_ops._blocks(single.matrix, cosets), _cosets=cosets)
                assert single.unitarity_residual == recount.unitarity_residual
                own.append(single.unitarity_residual)
            assert residual >= max(own)

    def test_non_unitary_stack_refused(self):
        u = random_invariant(2, preset_group("full_swap", 2), seed=1, depth=3)
        dec = eig_unitary(u)
        u._eig = unitary_ops.EigDecomposition(dec.eigenvectors * 1.5, dec.thetas, dec.clusters)
        with pytest.raises(NotUnitaryError, match="exceeds"):
            connectedness_path(u, 0.5)


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
        members, starts = _cluster_indices(values, tol)
        sweep = [m.tolist() for m in np.split(members, starts[1:])]
        assert all(m == sorted(m) for m in sweep)
        assert sorted(sweep) == sorted(union_find_clusters(values, tol))


class TestAssemble:
    """_assemble's cluster means, formed by size class without a per-cluster loop, give the
    thetas of np.mean over each cluster, bit for bit."""

    @staticmethod
    def loop_thetas(lambdas: np.ndarray) -> np.ndarray:
        flat, thetas = lambdas.reshape(-1), np.empty(lambdas.size)
        members, starts = _cluster_indices(flat, CLUSTER_TOL)
        for cluster in np.split(members, starts[1:]):
            rep = np.mean(flat[cluster])
            thetas[cluster] = np.angle(rep / abs(rep))
        return thetas

    @pytest.mark.parametrize("sizes", [[1] * 32, [7, 8, 1, 16], [8] * 4, [7] * 4 + [4], [32], [64],
                                       [1, 7, 8, 48]])
    def test_thetas_match_the_cluster_loop(self, sizes):
        dim = sum(sizes)
        rng = np.random.default_rng(dim + len(sizes))
        centres = np.linspace(-3.0, 3.0, len(sizes)) if len(sizes) > 1 else np.array([np.pi - 2e-9])
        # members 1e-9 apart, within CLUSTER_TOL of a neighbour; moduli off 1 in the last bits
        angles = np.concatenate([c + 1e-9 * rng.permutation(size) for c, size in zip(centres, sizes)])
        lambdas = (np.exp(1j * angles) * (1 + rng.normal(0.0, 1e-13, dim)))[rng.permutation(dim)]
        expected = self.loop_thetas(lambdas)
        for blocks in (1, 2):  # and as a stack of two blocks
            vectors = np.tile(np.eye(dim // blocks, dtype=complex), (blocks, 1, 1))
            dec = _assemble(vectors, lambdas.reshape(blocks, -1))
            oracle = np.sort(expected.reshape(blocks, -1), axis=-1, kind="stable")
            assert dec.thetas.tobytes() == oracle.tobytes()
        assert sorted(stop - start for start, stop in _assemble(np.eye(dim), lambdas).clusters) == sorted(sizes)


class TestPickle:
    """A pickled Unitary or EigDecomposition comes back read-only; a Unitary is rebuilt from its
    blocks, so its residual is recounted bit for bit, and its kept eigenpairs are dropped."""

    @staticmethod
    def unitaries():
        u = random_invariant(3, preset_group("cyclic", 3), seed=2, depth=5)
        blocked = exp_generator(next(TestFlipBlocks.sums()), 1.3)
        return [u, blocked, project_to_su(blocked), connectedness_path(blocked, 0.4), compose(u, u)]

    def test_unitary_round_trip(self):
        for u in self.unitaries():
            dec = eig_unitary(u)
            twin = pickle.loads(pickle.dumps(u))
            assert twin.matrix.tobytes() == u.matrix.tobytes() and not twin.matrix.flags.writeable
            assert twin.unitarity_residual == u.unitarity_residual
            assert u._eig is dec and twin._eig is None and twin._spectrum is None
            if u._cosets is None:
                assert twin._cosets is None
            else:
                assert np.array_equal(twin._cosets, u._cosets) and not twin._cosets.flags.writeable

    def test_decomposition_round_trip(self):
        for u in self.unitaries():
            dec = eig_unitary(u)
            twin = pickle.loads(pickle.dumps(dec))
            assert twin.clusters == dec.clusters
            for name in ("eigenvectors", "thetas", "cosets"):
                a, b = getattr(twin, name), getattr(dec, name)
                assert (a is None and b is None) or (np.array_equal(a, b) and not a.flags.writeable)


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

    def test_one_decomposition_serves_eig_and_path(self, s2, monkeypatch):
        calls = []
        original = unitary_ops._cayley_decomposition
        monkeypatch.setattr(unitary_ops, "_cayley_decomposition", lambda *a: calls.append(a) or original(*a))
        u = random_invariant(2, s2, seed=4, depth=3)  # no stored spectrum: the Cayley route
        dec = eig_unitary(u)
        for t in (0.0, 0.5, 1.0):
            connectedness_path(u, t)
        assert len(calls) == 1 and u._eig is dec and eig_unitary(u) is dec
        assert not (dec.eigenvectors.flags.writeable or dec.thetas.flags.writeable)  # shared by every reader
        eig_unitary(u.matrix)
        eig_unitary(u.matrix)  # a plain array keeps nothing
        assert len(calls) == 3


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


def chain_sum(terms, group) -> PauliSum:
    h = None
    for label, c in terms:
        s = symmetrize(PauliString.from_label(label), group) * c
        h = s if h is None else h + s
    return h


class TestFlipBlocks:
    """From _REAL_PRODUCT_DIM on, exp_generator, its path and project_to_su work
    block by block on the cosets of the generator's x-mask span."""

    @staticmethod
    def sums():
        rng = np.random.default_rng(23)
        pad = "I" * 3
        yield chain_sum([(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],
                        preset_group("cyclic", 6))  # real, 2 blocks
        yield chain_sum([(pad + "IXY", 0.9), (pad + "IIZ", 0.7)], preset_group("cyclic", 6))  # complex
        yield PauliSum.from_labels(7, [("ZIZIZZI", 0.9), ("IZZIIIZ", -0.4)])  # x = 0: 128 blocks of 1
        for odd_y in (False, True):  # x masks from two generators; even Y counts, or mixed
            gens = [int(g) for g in rng.integers(1, 1 << 6, size=2)]
            terms = []
            for k in range(6):
                x = gens[0] * (k & 1) ^ gens[1] * (k >> 1 & 1)
                z = int(rng.integers(1 << 6))
                if bin(x & z).count("1") % 2 != odd_y:
                    z ^= x & -x  # flips one Y letter
                terms.append((PauliString(6, x, z), float(rng.normal())))
            yield PauliSum(6, terms)

    def test_matches_dense_route_and_expm(self):
        def run(h, alpha):
            u = exp_generator(h, alpha)
            return [u, *(connectedness_path(u, t) for t in (0.0, 0.5, 1.0)), project_to_su(u)]

        for h in self.sums():
            cosets = one_sum_spectrum(h)[2]
            assert cosets is not None and len(cosets) > 1
            hm = dense_sum([(p.to_label(), c) for p, c in h.terms])
            alpha = 2.5 / np.abs(np.linalg.eigvalsh(hm)).max()  # eigenphases inside (-pi, pi)
            blocked = run(h, alpha)
            with complex_products():
                dense = run(h, alpha)
            assert np.array_equal(blocked[0]._cosets, cosets)
            assert all(u._cosets is not None for u in blocked) and all(u._cosets is None for u in dense)
            for a, b in zip(blocked, dense):
                assert np.abs(a.matrix - b.matrix).max() < 1e-12
                assert abs(a.unitarity_residual - b.unitarity_residual) < 1e-12
            for t, point in zip((1.0, 0.0, 0.5, 1.0), blocked[:4]):
                assert np.abs(point.matrix - expm(-0.5j * t * alpha * hm)).max() < 1e-12
            oracle = expm(-0.5j * alpha * hm)
            d = np.linalg.det(oracle)
            oracle = oracle * abs(d) ** (-1.0 / len(hm)) * np.exp(-1j * np.angle(d) / len(hm))
            assert np.abs(blocked[4].matrix - oracle).max() < 1e-12

    def test_blocked_results_are_zero_off_their_blocks(self):
        for h in self.sums():
            u = exp_generator(h, 1.3)
            for v in (u, *(connectedness_path(u, t) for t in (0.0, 0.5, 1.0)), project_to_su(u)):
                cosets = v._cosets
                off = np.ones(v.matrix.shape, dtype=bool)
                off[cosets[:, :, None], cosets[:, None, :]] = False
                assert not v.matrix[off].any()
                assert v.unitarity_residual == _unitarity_residual(unitary_ops._blocks(v.matrix, cosets))

    def test_block_stack_is_validated(self):
        u = exp_generator(next(self.sums()), 1.3)
        blocks = unitary_ops._blocks(u.matrix, u._cosets)
        assert np.array_equal(Unitary(blocks, _cosets=u._cosets).matrix, u.matrix)
        nan, skewed = blocks.copy(), blocks.copy()
        nan[1, 0, 0] = np.nan
        skewed[0, 0, 1] += 1e-6
        for bad in (nan, skewed):
            with pytest.raises(NotUnitaryError):
                Unitary(bad, _cosets=u._cosets)

    @staticmethod
    def path_point():
        """A(1/2) of a 7-qubit chain: a coset table of two 64-blocks, no stored spectrum."""
        n, pad = 7, "I" * 4
        h = chain_sum([(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],
                      preset_group("cyclic", n))
        point = connectedness_path(exp_generator(h, 2.9), 0.5)
        assert point._cosets.shape == (2, 64) and point._spectrum is None
        return point

    def test_cayley_route_on_blocks_matches_dense_route(self):
        point = self.path_point()
        blocked, dense = eig_unitary(point), eig_unitary(point.matrix)  # a bare array has no table
        assert blocked.cosets is point._cosets and dense.cosets is None
        assert blocked.eigenvectors.shape == (2, 64, 64)
        for t in (0.3, 1.0):
            assert np.abs(blocked.reconstruct(t) - dense.reconstruct(t)).max() < 1e-12

    def test_cayley_route_never_eigensolves_the_whole_space(self, monkeypatch):
        point = self.path_point()
        eigh, shapes = np.linalg.eigh, []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        dec = eig_unitary(point)
        assert shapes and all(shape[-1] < 128 for shape in shapes), shapes
        assert fro(dec.reconstruct() - point.matrix) < 1e-9

    def test_ten_qubit_chain_never_eigensolves_the_whole_space(self, monkeypatch):
        eigh = np.linalg.eigh

        def blockwise_eigh(a, *args, **kwargs):
            assert a.shape[-1] < 1024, "eigh ran on a 1024 x 1024 array"
            return eigh(a, *args, **kwargs)

        def refuse(*_):
            raise AssertionError("the Cayley route ran")

        monkeypatch.setattr(np.linalg, "eigh", blockwise_eigh)
        monkeypatch.setattr(unitary_ops, "_cayley_decomposition", refuse)
        n, pad = 10, "I" * 7
        h = chain_sum([(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],
                      preset_group("cyclic", n))
        u = exp_generator(h, 2.9)
        assert u._cosets.shape == (2, 512)
        half = connectedness_path(u, 0.5)
        assert fro(half.matrix @ half.matrix - u.matrix) < 1e-9
        assert abs(np.linalg.det(project_to_su(u).matrix) - 1) < 1e-9


class TestRealEigenvaluesSkipAProduct:
    """A(0) and other real d take one real product, bit for bit the two-product result."""

    @staticmethod
    def two_products(p, d):
        out = ((p * d.real[..., None, :]) @ p.mT).astype(complex)
        out.imag = (p * d.imag[..., None, :]) @ p.mT
        return out

    def test_real_d_on_both_routes(self):
        rng = np.random.default_rng(4)
        thetas = rng.uniform(-np.pi, np.pi, (3, 64))
        d = np.exp(1j * 0.0 * thetas)
        stack = np.stack([random_unitary(rng, 64, real=True) for _ in range(3)])
        for p, dd in ((stack[0], d[0]), (stack, d)):
            assert np.array_equal(_spectral_product(p, dd), self.two_products(p, dd))

    def test_path_start(self):
        n, pad = 7, "I" * 4
        h = chain_sum([(pad + "IXX", 0.8), (pad + "IIZ", 1.1), (pad + "YZY", 0.6)],
                      preset_group("cyclic", n))
        u = exp_generator(h, 2.9)
        start = connectedness_path(u, 0.0).matrix
        dec = u._eig
        assert np.isrealobj(dec.eigenvectors) and dec.cosets is not None
        oracle = np.zeros_like(start)
        oracle[dec.cosets[:, :, None], dec.cosets[:, None, :]] = self.two_products(
            dec.eigenvectors, np.exp(0j * dec.thetas))
        assert np.array_equal(start, oracle)
