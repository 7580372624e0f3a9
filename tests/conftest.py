"""Shared fixtures and independent dense-matrix oracles.

The oracle helpers below build matrices with their own kron loop and
letter table so that tests of the symbolic algebra never reuse the code
path they are checking.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from symsu import preset_group

ORACLE_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_label(label: str) -> np.ndarray:
    """Kron product of letter matrices, most significant qubit first."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, ORACLE_LETTERS[ch])
    return m


def dense_sum(pairs) -> np.ndarray:
    """Dense matrix of (label, coeff) pairs."""
    labels = [lab for lab, _ in pairs]
    dim = 2 ** len(labels[0])
    out = np.zeros((dim, dim), dtype=complex)
    for lab, c in pairs:
        out += c * dense_label(lab)
    return out


def fro(m) -> float:
    return float(np.linalg.norm(m))


@pytest.fixture(scope="session")
def s2():
    return preset_group("full_swap", 2)


@pytest.fixture(scope="session")
def s3():
    return preset_group("full_swap", 3)


@pytest.fixture(scope="session")
def trivial1():
    return preset_group("trivial", 1)


def orbit_terms_commute(label: str) -> bool:
    """Predict from letter counts whether a full_swap orbit commutes pairwise.

    Two strings anticommute iff an odd number of wires hold two different
    non-identity letters.  An identity-free orbit over letters A and B has
    as many (A, B) wires as (B, A) wires between any two members, an even
    count, so it commutes; one letter alone always commutes.  Otherwise a
    3-cycle of the wires holding A, B and I (or X, Y and Z) yields a member
    that differs from the label on exactly one (or three) such wires.
    """
    letters = set(label) - {"I"}
    return len(letters) <= 1 or (len(letters) == 2 and "I" not in label)


def generator_sets(max_n):
    """A qubit count n <= max_n with up to three random wire permutations."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3)))
