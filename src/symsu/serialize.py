"""JSON wire format for dense complex matrices: nested [re, im] pairs."""

import json

import numpy as np


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, row major."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_pairs(data) -> np.ndarray:
    """Inverse of matrix_to_pairs; ValueError for any other shape of data or a non-finite entry."""
    try:
        m = np.array([[complex(float(re), float(im)) for re, im in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix data must be rows of [re, im] pairs: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix data must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix data must be finite, got NaN or infinity")
    return m


def save_matrix(path, m: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_pairs(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_pairs(json.load(fh))
