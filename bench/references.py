"""Seeded inputs and independent references for the benchmark workloads.

Nothing here imports symsu: the expected values come from closed-form
counts, from plain numpy constructions and from scipy.linalg.expm, so a
defect in the package cannot also hide in its reference.
"""

import math

import numpy as np

def full_swap_dimension(n: int) -> int:
    """Orbits of S_n on the 4^n strings are multisets of n letters: C(n+3, 3)."""
    return math.comb(n + 3, 3) - 1


def _necklaces(n: int, k: int = 4) -> int:
    total = sum(_totient(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def _totient(d: int) -> int:
    return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)


def cyclic_dimension(n: int) -> int:
    """Necklaces of length n over the four letters I, X, Y, Z, minus the identity."""
    return _necklaces(n) - 1


def dihedral_dimension(n: int) -> int:
    """Bracelets of length n over four letters, minus the identity."""
    k = 4
    if n <= 2:
        return cyclic_dimension(n)
    if n % 2:
        return (_necklaces(n) + k ** ((n + 1) // 2)) // 2 - 1
    return (2 * _necklaces(n) + (k + 1) * k ** (n // 2)) // 4 - 1


DIMENSION = {
    "full_swap": full_swap_dimension,
    "cyclic": cyclic_dimension,
    "dihedral": dihedral_dimension,
}


def group_order(symmetry: str, n: int) -> int:
    if symmetry == "full_swap":
        return math.factorial(n)
    if symmetry == "cyclic":
        return n
    return 2 * n if n > 2 else n


def bit_permutation(image) -> np.ndarray:
    """Basis index map b -> b' that moves bit i of b to bit image[i]."""
    n = len(image)
    b = np.arange(1 << n)
    out = np.zeros_like(b)
    for i, dest in enumerate(image):
        out |= ((b >> i) & 1) << dest
    return out


def generator_images(symmetry: str, n: int) -> list[tuple]:
    """Wire images of a generating set, written out independently of symsu."""
    if symmetry == "full_swap":
        gens = []
        for i in range(n - 1):
            image = list(range(n))
            image[i], image[i + 1] = i + 1, i
            gens.append(tuple(image))
        return gens
    rotation = tuple((i + 1) % n for i in range(n))
    if symmetry == "cyclic":
        return [rotation]
    return [rotation, tuple((n - i) % n for i in range(n))]


def max_commutation_defect(m: np.ndarray, symmetry: str, n: int) -> float:
    """Largest ||S M S+ - M|| over a generating set; zero iff M is invariant."""
    worst = 0.0
    for image in generator_images(symmetry, n):
        s = bit_permutation(image)
        worst = max(worst, float(np.linalg.norm(m[np.ix_(s, s)] - m)))
    return worst


def cnot_map(control: int, target: int, n: int) -> np.ndarray:
    """Basis index map of CNOT: flip bit `target` where bit `control` is set."""
    b = np.arange(1 << n)
    return b ^ (((b >> control) & 1) << target)


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    m = np.zeros((1 << n, 1 << n))
    m[cnot_map(control, target, n), np.arange(1 << n)] = 1.0
    return m


def commutant_unitary(seed: int) -> np.ndarray:
    """A 3-qubit unitary commuting with every CNOT of GL(3, 2).

    The CNOTs fix |000> and permute the seven other basis states, so any
    e^{ia}|0><0| + e^{ib} J/7 + e^{ic} (1 - J/7) on that block commutes
    with them (J is the all-ones matrix on the seven states).
    """
    a, b, c = np.random.default_rng([seed, 3]).uniform(0.0, 2.0 * np.pi, 3)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = np.exp(1j * a)
    uniform = np.full((7, 7), 1.0 / 7.0)
    m[1:, 1:] = np.exp(1j * b) * uniform + np.exp(1j * c) * (np.eye(7) - uniform)
    return m


def random_unitary(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, dim])
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zz_couplings(seed: int, n: int) -> tuple[list[tuple[int, int, float]], float]:
    """Seeded couplings c_ij of sum_{i<j} c_ij Z_i Z_j, and the angle alpha."""
    rng = np.random.default_rng([seed, n, 2])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coeffs = rng.uniform(-1.0, 1.0, len(pairs))
    alpha = float(rng.uniform(0.5, 2.0 * np.pi))
    return [(i, j, float(c)) for (i, j), c in zip(pairs, coeffs)], alpha


def zz_label(n: int, i: int, j: int) -> str:
    """Label with Z on qubits i and j; the leftmost letter is qubit n-1."""
    return "".join("Z" if q in (i, j) else "I" for q in reversed(range(n)))


def zz_exponential_oracle(seed: int, n: int) -> np.ndarray:
    """scipy.linalg.expm(-i alpha/2 H) of the seeded Z_i Z_j sum."""
    from scipy.linalg import expm

    couplings, alpha = zz_couplings(seed, n)
    b = np.arange(1 << n)
    diag = np.zeros(1 << n)
    for i, j, c in couplings:
        diag += c * (1 - 2 * (((b >> i) ^ (b >> j)) & 1))
    return expm(-0.5j * alpha * np.diag(diag))


def chain_generator(seed: int, n: int) -> tuple[list[tuple[str, float]], float]:
    """Seed strings with coefficients for the cyclic chain, and the angle alpha.

    The strings are fixed, so the degeneracy pattern of the generator and
    therefore the work per pass do not depend on the seed; the seed moves
    the coefficients and the angle only.
    """
    rng = np.random.default_rng([seed, n, 1])
    labels = ["I" * (n - 2) + "XX", "I" * (n - 1) + "Z", "I" * (n - 3) + "YZY"]
    coeffs = rng.uniform(0.5, 1.5, len(labels))
    alpha = float(rng.uniform(0.5, 2.0 * np.pi))
    return [(lab, float(c)) for lab, c in zip(labels, coeffs)], alpha


def permutation_group_order(maps) -> int:
    """Order of the group generated by basis-index maps, by breadth-first closure."""
    identity = tuple(range(len(maps[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in maps:
                q = tuple(int(g[i]) for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


# Qubit count of the Z_i Z_j circuit request, per workload that has one.
ZZ_QUBITS = {"dense": 8, "smoke": 3}
ZZ_ORACLE_FILE = "zz_oracle.npy"


def prepare(workload: str, workdir, seed: int):
    """Write the references that need scipy, in the harness process.

    They are computed here rather than in the workload process so that
    loading scipy does not count in that process's peak memory.
    """
    if workload in ZZ_QUBITS:
        np.save(workdir / ZZ_ORACLE_FILE, zz_exponential_oracle(seed, ZZ_QUBITS[workload]))
