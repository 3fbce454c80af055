"""Second-quantized fermionic operators on spin orbitals, the
Jordan-Wigner map, dense matrix realizations (full or restricted to a set
of basis states) and LCU one-norms: the reference that diagonalize's
string blocks and closed-form one-norms are tested against.

Conventions used throughout the package:

* Spin-orbital (mode) indices run 0..N-1.  In the occupation-number basis,
  mode p corresponds to bit (N-1-p) of the basis-state integer, i.e. mode 0
  is the most significant bit.  This matches the qubit ordering of the
  Jordan-Wigner image, where qubit 0 is the leftmost tensor factor.
* A term is an ordered product of ladder operators, written left to right;
  the rightmost operator acts on the ket first.
* The two-body tensor enters the Hamiltonian literally as
  sum_pqrs V[p,q,r,s] a_p^dag a_q^dag a_r a_s.  Real-orbital inputs must
  carry the eight-fold index symmetry generated by p<->s, q<->r and the
  pair swap (p,q,r,s) -> (q,p,s,r); this is validated, never assumed.
* Pauli strings are IXYZ words with qubit 0 leftmost.  Internally a string
  is the symplectic pair of integer bit masks (x, z), qubit q being bit
  n-1-q: X sets x, Z sets z, Y sets both and stands for i^{x.z} X^x Z^z
  (Aaronson & Gottesman, PRA 70, 052328 (2004)).  Products follow
  P_a P_b = i^k P_(xa^xb, za^zb) with
  k = |xa&za| + |xb&zb| + 2|za&xb| - |x&z| (mod 4), and a string maps
  basis state b to b^x with amplitude i^{|x&z|} (-1)^{|z&b|}.
* The Jordan-Wigner map goes through Majorana products: with
  a_p = (g_2p + i g_2p+1)/2, a_p^dag = (g_2p - i g_2p+1)/2, g_2p = Z..Z X_p
  and g_2p+1 = Z..Z Y_p (Z on the qubits before p), a term of length j is
  2^j products, and each sorted product of distinct Majoranas is one Pauli
  string (Bravyi & Kitaev, Ann. Phys. 298, 210 (2002)).  jordan_wigner
  adds each contribution, c / 2^j times a power of i (exact), into its
  string's sum from 0j in term order and, within a term, with the first
  factor's choice as the most significant, as the dict loop in
  tests/pauli_reference.py does.  Sums at or below PRUNE_TOL drop once, at
  the end; strings come out in the order of their first contribution.
* Size caps are constants: jordan_wigner and the builders take at most
  the model cap DEFAULT_MODE_CAP modes, and full 2^n x 2^n matrices are
  built up to FULL_SPACE_MODE_CAP modes; both refuse before allocating.
  The cap, PRUNE_TOL and the symmetry checks come from respsim.models; no
  other package module imports this one, so a run never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError, check_reals, is_int
from .models import (DEFAULT_MODE_CAP, PRUNE_TOL, validate_one_body_symmetry,
                     validate_two_body_symmetry)

# largest mode count whose full 2^n x 2^n matrix is built: 4096^2 complex
# entries, 256 MiB
FULL_SPACE_MODE_CAP = 12


# ---------------------------------------------------------------------------
# fermionic operators
# ---------------------------------------------------------------------------

class FermionOperator:
    """Sparse sum of ladder-operator products.

    ``terms`` maps an action tuple ``((mode, dagger), ...)`` to a complex
    coefficient.  The empty tuple is the identity.
    """

    def __init__(self, n_modes: int, terms: dict | None = None):
        if not (is_int(n_modes) and n_modes >= 0):
            raise InputError("n_modes must be a non-negative integer")
        self.n_modes = int(n_modes)
        self.terms: dict[tuple, complex] = {}
        for actions, coeff in (terms or {}).items():
            self._add(tuple(actions), complex(coeff))
        self.terms = {a: c for a, c in self.terms.items() if abs(c) > PRUNE_TOL}

    def _add(self, actions: tuple, coeff: complex):
        for p, d in actions:
            if not (is_int(p) and 0 <= p < self.n_modes):
                raise InputError(
                    f"mode index {p} must be an integer in [0, {self.n_modes})")
            if not (isinstance(d, bool) or is_int(d) and d in (0, 1)):
                raise InputError("dagger flag must be a bool, 0 or 1")
        key = tuple((int(p), int(bool(d))) for p, d in actions)
        self.terms[key] = self.terms.get(key, 0j) + coeff

    def __len__(self):
        return len(self.terms)

    def dense(self) -> np.ndarray:
        """Complex occupation-basis matrix built directly from ladder-operator action
        (no qubit mapping involved); refused above FULL_SPACE_MODE_CAP
        modes."""
        n = self.n_modes
        if n > FULL_SPACE_MODE_CAP:
            raise ResourceError(
                f"{n} modes exceeds the dense cap of {FULL_SPACE_MODE_CAP}")
        dim = 1 << n
        states = np.arange(dim, dtype=np.int64)
        pop = np.zeros(dim, dtype=np.int64)
        for b in range(n):
            pop += (states >> b) & 1
        mat = np.zeros((dim, dim), dtype=complex)
        below_mask = [0] * n  # bits of modes strictly below p
        for p in range(n):
            m = 0
            for j in range(p):
                m |= 1 << (n - 1 - j)
            below_mask[p] = m
        for actions, coeff in self.terms.items():
            cur = states.copy()
            alive = np.ones(dim, dtype=bool)
            sign = np.ones(dim, dtype=np.int64)
            for p, d in reversed(actions):  # rightmost acts first
                bit = 1 << (n - 1 - p)
                occ = (cur & bit) != 0
                alive &= occ != bool(d)
                parity = pop[cur & below_mask[p]] & 1
                sign *= 1 - 2 * parity
                cur = cur ^ bit
            rows, cols = cur[alive], states[alive]
            mat[rows, cols] += coeff * sign[alive]
        return mat


def _ladder_sum(tensor: np.ndarray) -> FermionOperator:
    """The ladder sum of a rank-2k tensor, sum t[p1..p2k]
    a_p1^dag..a_pk^dag a_pk+1..a_p2k, as a FermionOperator on shape[0]
    modes: one term per entry above PRUNE_TOL, in np.nonzero (row-major)
    order."""
    index = np.nonzero(np.abs(tensor) > PRUNE_TOL)
    daggers = [1] * (tensor.ndim // 2) + [0] * (tensor.ndim // 2)
    op = FermionOperator(tensor.shape[0])
    op.terms = {tuple(zip(modes, daggers)): complex(c)
                for modes, c in zip(np.transpose(index).tolist(),
                                    tensor[index].tolist())}
    return op


def build_hamiltonian(T: np.ndarray, V: np.ndarray) -> FermionOperator:
    """H = sum T[p,q] a_p^dag a_q + sum V[p,q,r,s] a_p^dag a_q^dag a_r a_s,
    for T and V that `_symmetric_tensors` admits."""
    T, V = _symmetric_tensors([T, V])
    if (T.ndim, V.ndim) != (2, 4):
        raise InputError("need a matrix T and a rank-4 tensor V")
    op = _ladder_sum(T)
    op.terms.update(_ladder_sum(V).terms)
    return op


def build_dipole(d_axis: np.ndarray) -> FermionOperator:
    """One-body operator sum d[p,q] a_p^dag a_q for one Cartesian axis, a
    matrix that `_symmetric_tensors` admits."""
    (d,) = _symmetric_tensors([d_axis])
    if d.ndim != 2:
        raise InputError("dipole matrix must be square")
    return _ladder_sum(d)


def _check_mode_cap(n: int):
    if n > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"{n} modes exceeds the qubit cap of {DEFAULT_MODE_CAP}")


def _symmetric_tensors(tensors) -> list:
    """The tensors as float arrays of shape (n, n) or (n, n, n, n), on one
    mode count n of at most DEFAULT_MODE_CAP, once every matrix is
    symmetric and every V eight-fold symmetric to 1e-10: the one check of
    the operator builders' tensors."""
    ts = [check_reals(t, "tensor entries") for t in tensors]
    for t in ts:
        if t.ndim not in (2, 4) or len(set(t.shape)) != 1:
            raise InputError(
                f"tensor shape {t.shape} is not (n, n) or (n, n, n, n)")
        _check_mode_cap(t.shape[0])
        if t.ndim == 4:
            validate_two_body_symmetry(t)
        else:
            validate_one_body_symmetry(t)
    if len({t.shape[0] for t in ts}) > 1:
        raise InputError("tensors act on different mode counts")
    return ts


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------

# i**k for the phase exponent k of a Pauli product, and the x and z bit of
# each IXYZ letter
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


@dataclass
class PauliOperator:
    """Sparse sum of Pauli strings; strings are length-n words over IXYZ
    with qubit 0 as the leftmost character."""

    n_qubits: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for s, c in self.terms.items():
            if len(s) != self.n_qubits or s.strip("IXYZ"):
                raise InputError(f"bad Pauli string {s!r} for {self.n_qubits} qubits")
            if abs(c) > PRUNE_TOL:
                clean[s] = complex(c)
        self.terms = clean

    def __len__(self):
        return len(self.terms)

    def dense(self, states=None) -> np.ndarray:
        """Complex matrix of the operator, or its block on the given basis
        states.

        Term (x, z) with coefficient c sends basis state b to b ^ x with
        amplitude c * i**|x & z| * (-1)**|z & b|.  ``states`` lists distinct
        basis-state integers; only rows and columns among them are filled,
        in that order, so a particle-number sector never needs the full
        2^n x 2^n matrix.  Strings are added one at a time, in term order.
        The full matrix (no ``states``) is refused above
        FULL_SPACE_MODE_CAP qubits.
        """
        n = self.n_qubits
        dim = 1 << n
        if states is None:
            if n > FULL_SPACE_MODE_CAP:
                raise ResourceError(
                    f"{n} qubits exceeds the full-space cap of "
                    f"{FULL_SPACE_MODE_CAP}")
            cols = np.arange(dim, dtype=np.int64)
        else:
            cols = np.asarray(states, dtype=np.int64)
            if (cols.ndim != 1 or np.any((cols < 0) | (cols >= dim))
                    or np.unique(cols).size != cols.size):
                raise InputError(
                    f"states must be distinct basis states in [0, {dim})")
        m = cols.size
        pos = np.full(dim, -1, dtype=np.int64)
        pos[cols] = np.arange(m)
        index = np.arange(m)
        mat = np.zeros((m, m), dtype=complex)
        for word, c in self.terms.items():
            x = int("0" + word.translate(_X_BITS), 2)
            z = int("0" + word.translate(_Z_BITS), 2)
            rows = pos[cols ^ x]
            hit = rows >= 0
            v = c * _I_POW[(x & z).bit_count() & 3]
            odd = (np.bitwise_count(cols[hit] & z) & 1).astype(bool)
            mat[rows[hit], index[hit]] += np.where(odd, -v, v)
        return mat


def _word(x: int, z: int, n: int) -> str:
    """IXYZ word of the masks (x, z) on n qubits."""
    return "".join("IZXY"[2 * (x >> q & 1) + (z >> q & 1)]
                   for q in range(n - 1, -1, -1))


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Pauli-sum image of a FermionOperator, through its Majorana products.

    Each term's 2^j products are multiplied out factor by factor, as
    i^k X^x Z^z, from the two Majoranas of each mode; each contribution is
    added into its string's sum from 0j, and PauliOperator drops the sums
    at or below PRUNE_TOL.  Operators on more than DEFAULT_MODE_CAP modes
    are refused.
    """
    n = op.n_modes
    _check_mode_cap(n)
    # per mode, its two choices as (x, z, k) of i^k X^x Z^z: g_2p = X_p Z_<p
    # and g_2p+1 = i X_p Z_p Z_<p (Z_<p on the qubits before p), the odd one
    # times i for an annihilator (k = 2) or -i for a creator (k = 0)
    halves = [((b, (1 << n) - 2 * b, 0), (b, (1 << n) - b, 2))
              for b in (1 << q for q in range(n - 1, -1, -1))]
    sums = {}
    for actions, coeff in op.terms.items():
        scaled = coeff * 0.5 ** len(actions)
        products = [(0, 0, 0)]
        for p, dagger in actions:
            # Z^z X^xb = (-1)^|z & xb| X^xb Z^z; xb is the single bit of p
            products = [(x ^ xb, z ^ zb, k + kb * (1 - dagger)
                         + 2 * bool(z & xb))
                        for x, z, k in products
                        for xb, zb, kb in halves[p]]
        for x, z, k in products:
            # i^k X^x Z^z is i^(k - |x & z|) times the word of (x, z)
            c = scaled * _I_POW[(k - (x & z).bit_count()) & 3]
            sums[x, z] = sums.get((x, z), 0j) + c
    return PauliOperator(n, {_word(x, z, n): c for (x, z), c in sums.items()})


def lcu_one_norm(op: PauliOperator) -> float:
    """Sum of |coefficients| -- the LCU subnormalization of the operator."""
    return float(sum(abs(c) for c in op.terms.values()))


def eta_dipole_norm(d_axis: np.ndarray, eta: int) -> float:
    """Sum of the eta largest-magnitude eigenvalues of the one-body dipole
    matrix (the single-particle-rotation subnormalization)."""
    d = check_reals(d_axis, "dipole matrix entries")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("dipole matrix must be square")
    if not 0 < eta <= d.shape[0]:
        raise InputError(f"eta must be in (0, {d.shape[0]}]")
    ev = np.linalg.eigvalsh((d + d.T) / 2)
    mags = np.sort(np.abs(ev))[::-1]
    return float(mags[:eta].sum())

