"""JSON wire format for dense complex matrices: nested [re, im] pairs."""

import json

import numpy as np


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, row major."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_pairs(data) -> np.ndarray:
    """Inverse of matrix_to_pairs, bit for bit; ValueError for another shape or a non-finite entry."""
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix data must be rows of [re, im] pairs: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"matrix data must be rows of [re, im] pairs, got shape {pairs.shape}")
    if pairs.shape[0] != pairs.shape[1]:
        raise ValueError(f"matrix data must be square, got shape {pairs.shape[:2]}")
    if not np.isfinite(pairs).all():
        raise ValueError("matrix data must be finite, got NaN or infinity")
    return pairs.view(complex)[..., 0]


def _pairs_json(m: np.ndarray):
    """json.dumps(matrix_to_pairs(m)) in pieces, a row at a time, so that
    no nested list of the whole matrix is built."""
    yield "["
    for i, row in enumerate(np.asarray(m, dtype=complex)):
        yield (", " if i else "") + json.dumps(matrix_to_pairs(row))
    yield "]"


def save_matrix(path, m: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pairs_json(m))


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_pairs(json.load(fh))
