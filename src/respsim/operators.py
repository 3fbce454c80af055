"""Second-quantized fermionic operators, the Jordan-Wigner map, and dense
matrix realizations (full or restricted to a set of basis states).

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
* The Jordan-Wigner map runs on integer bit-mask arrays, with no Python
  loop over terms, and gives the same bits as multiplying each term's
  ladder images as dicts and adding them into one dict (that reference
  lives in tests/pauli_reference.py).  Terms go in fixed-size blocks, one
  ladder count at a time, on (terms x 2^j) arrays: each ladder factor
  splits every string into its image's two strings, equal strings of a
  term merge into the first of them, and strings at or below PRUNE_TOL
  drop, after every factor.  The products then enter one running sum in
  term order.  Order rule: a string whose sum falls to |s| <= PRUNE_TOL
  leaves the sum and re-enters at the position of its next contribution,
  so strings come out in the order they last entered the sum.  Only the
  order of additions can move a bit: every product is exact (factors
  +-1/2, +-i/2 and powers of i), and every sum starts from 0j, so a zero
  component always comes out as +0.0.  One-norms sum |c| in that order,
  one term after the other.
* Size caps are constants: jordan_wigner maps at most DEFAULT_MODE_CAP
  modes, and full 2^n x 2^n matrices are built up to FULL_SPACE_MODE_CAP
  modes; both refuse before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import InputError, ResourceError

PRUNE_TOL = 1e-14
# largest max |m_ij - conj(m_ji)| of a DenseOperator read as hermitian
HERMITIAN_TOL = 1e-12
# largest mode count jordan_wigner maps (so diagonalize takes); it must stay
# <= 31, since its string keys x << n | z are int64
DEFAULT_MODE_CAP = 14
# largest mode count whose full 2^n x 2^n matrix is built: 4096^2 complex
# entries, 256 MiB
FULL_SPACE_MODE_CAP = 12
# terms multiplied at once by jordan_wigner, and matrix entries filled at
# once by PauliOperator.dense; both bound temporaries, not results
_JW_BLOCK = 256
_DENSE_BLOCK = 1 << 14

# the eight index permutations of the real-orbital two-body symmetry group,
# identity first
TWO_BODY_IMAGES = (
    (0, 1, 2, 3),
    (3, 1, 2, 0),  # p <-> s
    (0, 2, 1, 3),  # q <-> r
    (3, 2, 1, 0),  # both
    (1, 0, 3, 2),  # pair swap
    (1, 3, 0, 2),
    (2, 0, 3, 1),
    (2, 3, 0, 1),
)


# ---------------------------------------------------------------------------
# dense operators
# ---------------------------------------------------------------------------

def _hermitian_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|, one 64-row strip of the upper triangle at a
    time.

    Each strip m[i:i+64, i:] meets its mirror m[i:, i:i+64], so every pair
    (and the diagonal) is compared once and no full-size temporary is built.
    """
    worst = 0.0
    for i in range(0, m.shape[0], 64):
        strip = m[i:i + 64, i:]
        mirror = m[i:, i:i + 64].T
        worst = max(worst, float(np.max(np.abs(strip - mirror.conj()))))
    return worst


@dataclass(frozen=True)
class DenseOperator:
    """A square matrix: the full 2^n space or a block on chosen basis
    states."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("DenseOperator needs a square matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def hermitian(self) -> bool:
        """Whether the matrix is hermitian to HERMITIAN_TOL, checked on
        every read."""
        return _hermitian_defect(self.matrix) <= HERMITIAN_TOL

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# fermionic operators
# ---------------------------------------------------------------------------

class FermionOperator:
    """Sparse sum of ladder-operator products.

    ``terms`` maps an action tuple ``((mode, dagger), ...)`` to a complex
    coefficient.  The empty tuple is the identity.
    """

    def __init__(self, n_modes: int, terms: dict | None = None):
        if n_modes < 0:
            raise InputError("n_modes must be non-negative")
        self.n_modes = int(n_modes)
        self.terms: dict[tuple, complex] = {}
        for actions, coeff in (terms or {}).items():
            self._add(tuple(actions), complex(coeff))
        self.terms = {a: c for a, c in self.terms.items() if abs(c) > PRUNE_TOL}

    def _add(self, actions: tuple, coeff: complex):
        for p, d in actions:
            if not 0 <= p < self.n_modes:
                raise InputError(f"mode index {p} out of range [0, {self.n_modes})")
            if d not in (0, 1, True, False):
                raise InputError("dagger flag must be boolean")
        key = tuple((int(p), int(bool(d))) for p, d in actions)
        self.terms[key] = self.terms.get(key, 0j) + coeff

    def __len__(self):
        return len(self.terms)

    def dense(self) -> DenseOperator:
        """Occupation-basis matrix built directly from ladder-operator action
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
        return DenseOperator(mat)


def _ladder_sum(tensor: np.ndarray, daggers: tuple) -> FermionOperator:
    """sum tensor[p, q, ...] a_p^d0 a_q^d1 ... over the entries above
    PRUNE_TOL, filled in one pass in np.nonzero (row-major) order, on
    shape[0] modes."""
    n = tensor.shape[0]
    index = np.nonzero(np.abs(tensor) > PRUNE_TOL)
    if index[0].size and max(int(i.max()) for i in index) >= n:
        raise InputError(f"mode index out of range [0, {n})")
    actions = zip(*(zip(i.tolist(), repeat(d))
                    for i, d in zip(index, daggers)))
    op = FermionOperator(n)
    op.terms = dict(zip(actions, map(complex, tensor[index].tolist())))
    return op


def build_hamiltonian(T: np.ndarray, V: np.ndarray) -> FermionOperator:
    """H = sum T[p,q] a_p^dag a_q + sum V[p,q,r,s] a_p^dag a_q^dag a_r a_s."""
    T = np.asarray(T, dtype=float)
    V = np.asarray(V, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise InputError("T must be a square matrix")
    n = T.shape[0]
    if V.shape != (n, n, n, n):
        raise InputError(f"V shape {V.shape} does not match T ({n} modes)")
    if np.max(np.abs(T - T.T), initial=0.0) > 1e-10:
        raise InputError("one-body matrix T is not symmetric to 1e-10")
    validate_two_body_symmetry(V)
    op = _ladder_sum(T, (1, 0))
    op.terms.update(_ladder_sum(V, (1, 1, 0, 0)).terms)
    return op


def validate_two_body_symmetry(V: np.ndarray):
    """Check the eight-fold real-orbital index symmetry of the V tensor to
    1e-10."""
    for perm in TWO_BODY_IMAGES[1:]:
        dev = np.max(np.abs(V - V.transpose(perm)), initial=0.0)
        if dev > 1e-10:
            raise InputError(
                f"two-body tensor violates index symmetry {perm} by {dev:.3e}"
            )


def build_dipole(d_axis: np.ndarray) -> FermionOperator:
    """One-body operator sum d[p,q] a_p^dag a_q for one Cartesian axis."""
    d = np.asarray(d_axis, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("dipole matrix must be square")
    if np.max(np.abs(d - d.T), initial=0.0) > 1e-10:
        raise InputError("dipole matrix is not symmetric to 1e-10")
    return _ladder_sum(d, (1, 0))


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------

# i**k for the phase exponent k of a Pauli product, the word byte of
# 2x + z, and the x and z bit of a word byte
_I_POW_ARRAY = np.array([1 + 0j, 1j, -1 + 0j, -1j])
_WORD_BYTES = np.frombuffer(b"IZXY", dtype=np.uint8)
_X_OF = np.zeros(128, dtype=np.int64)
_X_OF[[ord("X"), ord("Y")]] = 1
_Z_OF = np.zeros(128, dtype=np.int64)
_Z_OF[[ord("Y"), ord("Z")]] = 1
# the two strings of a ladder image: child t, and its coefficients for an
# annihilator and a creator
_CHILD = np.array([0, 1])
_LADDER = np.array([0.5 + 0j, 0.5j])
_LADDER_DAG = np.array([0.5 + 0j, -0.5j])


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

    def one_norm(self) -> float:
        return float(sum(abs(c) for c in self.terms.values()))

    def __len__(self):
        return len(self.terms)

    def dense(self, states=None) -> DenseOperator:
        """Matrix of the operator, or its block on the given basis states.

        Term (x, z) with coefficient c sends basis state b to b ^ x with
        amplitude c * i**|x & z| * (-1)**|z & b|.  ``states`` lists distinct
        basis-state integers; only rows and columns among them are filled,
        in that order, so a particle-number sector never needs the full
        2^n x 2^n matrix.  Terms go a (terms x states) batch at a time, and
        np.add.at accumulates each entry in term order.  The full matrix
        (no ``states``) is refused above FULL_SPACE_MODE_CAP qubits.
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
        words = list(self.terms)
        codes = np.frombuffer("".join(words).encode("ascii"),
                              dtype=np.uint8).reshape(len(words), n)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        x, z = _X_OF[codes] @ weights, _Z_OF[codes] @ weights
        c = np.fromiter(self.terms.values(), dtype=complex, count=len(words))
        v = (c * _I_POW_ARRAY[np.bitwise_count(x & z) & 3])[:, None]
        mat = np.zeros((m, m), dtype=complex)
        flat = mat.reshape(-1)
        step = max(1, _DENSE_BLOCK // max(m, 1))
        for lo in range(0, len(words), step):
            hi = lo + step
            rows = pos[cols ^ x[lo:hi, None]]
            hit = rows >= 0
            odd = (np.bitwise_count(cols & z[lo:hi, None]) & 1).astype(bool)
            np.add.at(flat, (rows * m + np.arange(m))[hit],
                      np.where(odd, -v[lo:hi], v[lo:hi])[hit])
        return DenseOperator(mat)


def _ladder_products(n: int, modes: np.ndarray, daggers: np.ndarray,
                     coeffs: np.ndarray) -> tuple:
    """JW images of B terms of equal length j, on (B, 2**j) arrays.

    modes and daggers are (B, j), coeffs (B,).  Column by column, each slot
    (z, c) of a row splits into the ladder image's two strings, (bit, zs)
    with 1/2 and (bit, zs | bit) with -/+ i/2: z ^ zs or z ^ zs ^ bit, and
    c * cb * i**k.  The x mask is one per row.  Slot 2s + t is the t-th
    child of slot s, so slot order is the dict's visiting order.  Equal
    strings of a row then merge into their first slot, summed in slot order
    (np.add.at), and every slot at or below PRUNE_TOL leaves ``live``.  Two
    strings of a row can only meet at a mode the term already had, so at a
    mode new to every row there is nothing to merge.  Returns
    (keys x << n | z, coefficients, live), each (B, 2**j).
    """
    b = len(coeffs)
    x = np.zeros((b, 1, 1), dtype=np.int64)
    z = np.zeros((b, 1), dtype=np.int64)
    xz = np.zeros((b, 1), dtype=np.int64)  # |x & z| of each slot
    c = coeffs[:, None]
    live = np.hypot(c.real, c.imag) > PRUNE_TOL
    row = (np.arange(b, dtype=np.int64) << n)[:, None, None]
    for col in range(modes.shape[1]):
        shift = (n - 1 - modes[:, col])[:, None]
        bit = (1 << shift)[..., None]
        zs = ((1 << n) - 1) ^ ((bit << 1) - 1)  # Z on the qubits before
        # k = |x & z| + |xb & zb| + 2|z & xb| - |x' & z'| (mod 4), with
        # |xb & zb| = t for child t
        k = (xz + 2 * ((z >> shift) & 1))[..., None] + _CHILD
        x = x ^ bit
        zt = z[..., None] ^ zs ^ bit * _CHILD  # (B, W, 2): child t of slot
        xz = np.bitwise_count(x & zt)
        k = (k - xz) & 3
        phase = c[..., None] * np.where(daggers[:, col, None, None],
                                        _LADDER_DAG, _LADDER)
        phase = (phase * _I_POW_ARRAY[k]).ravel()
        w = 2 * z.shape[1]
        z, xz = zt.reshape(b, w), xz.reshape(b, w)
        live = np.repeat(live, 2, axis=1).ravel()
        if (modes[:, :col] == modes[:, col, None]).any():
            at = np.flatnonzero(live)
            _, first, inv = np.unique((zt + row).ravel()[at],
                                      return_index=True, return_inverse=True)
            sums = np.zeros(first.size, dtype=complex)
            np.add.at(sums, inv, phase[at])
            c = np.zeros(b * w, dtype=complex)
            c[at[first]] = sums
            live[:] = False
            live[at[first]] = True
        else:
            c = phase
        live &= np.hypot(c.real, c.imag) > PRUNE_TOL
        c, live = c.reshape(b, w), live.reshape(b, w)
    return x[:, :, 0] << n | z, c, live


def _term_images(op: FermionOperator) -> tuple:
    """Every term's JW image as one contribution list (keys, coefficients),
    in term order and, within a term, in the dict's insertion order.

    Terms go _JW_BLOCK at a time and, within a block, one length at a
    time; a block's contributions are put back in (term, slot) order.
    """
    n = op.n_modes
    actions = list(op.terms)
    lengths = np.fromiter(map(len, actions), dtype=np.intp,
                          count=len(actions))
    ladders = np.fromiter(chain.from_iterable(chain.from_iterable(actions)),
                          dtype=np.int64, count=2 * int(lengths.sum()))
    ladders = ladders.reshape(-1, 2)
    start = np.cumsum(lengths) - lengths
    coeffs = np.fromiter(op.terms.values(), dtype=complex, count=len(actions))
    keys, values = [], []
    for lo in range(0, len(actions), _JW_BLOCK):
        block = lengths[lo:lo + _JW_BLOCK]
        width = 1 << int(block.max())
        parts = []
        for j in sorted(set(block.tolist())):
            rows = lo + np.flatnonzero(block == j)
            acts = ladders[start[rows, None] + np.arange(j)]
            key, c, live = _ladder_products(n, acts[..., 0], acts[..., 1],
                                            coeffs[rows])
            r, s = np.nonzero(live)
            parts.append((rows[r] * width + s, key[r, s], c[r, s]))
        pos, key, c = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(pos, kind="stable")
        keys.append(key[order])
        values.append(c[order])
    if not keys:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    return np.concatenate(keys), np.concatenate(values)


def _running_total(keys: np.ndarray, values: np.ndarray) -> tuple:
    """Sum contributions into the dict's running total, key by key.

    Contribution i adds values[i] to its key's sum s (0j when the key is
    out of the sum); |s| <= PRUNE_TOL takes the key out, and a key that
    (re-)enters the sum takes position i.  A key occurs at most once per
    occurrence rank, so one fancy-indexed update per rank applies every
    key's additions in contribution order.  Temporaries go as soon as they
    are spent, which bounds the peak.  Returns (keys, sums) in the order of
    the keys' positions.
    """
    out = keys.size  # the position of a key out of the sum
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(out, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    unique = ranked[new]
    del ranked
    kid = np.cumsum(new) - 1
    rank = np.arange(out) - np.flatnonzero(new)[kid]
    del new
    by_rank = np.argsort(rank, kind="stable")
    ends = np.cumsum(np.bincount(rank))
    del rank
    kid, src = kid[by_rank], order[by_rank]
    del order, by_rank
    values = values[src]
    sums = np.zeros(unique.size, dtype=complex)
    entry = np.full(unique.size, out)
    lo = 0
    for hi in ends:
        ids = kid[lo:hi]
        s = sums[ids] + values[lo:hi]
        keep = np.hypot(s.real, s.imag) > PRUNE_TOL
        sums[ids] = np.where(keep, s, 0)
        entry[ids] = np.where(keep, np.minimum(entry[ids], src[lo:hi]), out)
        lo = hi
    inside = np.flatnonzero(entry < out)
    inside = inside[np.argsort(entry[inside], kind="stable")]
    return unique[inside], sums[inside]


def _words(keys: np.ndarray, n: int) -> list:
    """IXYZ words of string keys x << n | z."""
    bits = keys[:, None] >> np.arange(n - 1, -1, -1)
    xz = 2 * ((bits >> n) & 1) + (bits & 1)
    text = _WORD_BYTES[xz].tobytes().decode("ascii")
    return [text[i * n:(i + 1) * n] for i in range(len(keys))]


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Map a FermionOperator to its Pauli-sum image, on bit-mask arrays.

    Bit for bit, this is the term-by-term dict computation: each term's
    ladder images are multiplied left to right, merging equal strings in
    first-insertion order and pruning after every factor
    (_ladder_products, _JW_BLOCK terms at a time); each product is added
    into one running sum in term order, pruned string by string, where a
    string that cancels to |s| <= PRUNE_TOL leaves the sum and re-enters at
    the position of its next contribution (_running_total).  The words come
    out in the order they last entered the sum.  Operators on more than
    DEFAULT_MODE_CAP modes are refused.
    """
    n = op.n_modes
    if n > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"{n} modes exceeds the qubit cap of {DEFAULT_MODE_CAP}")
    keys, sums = _running_total(*_term_images(op))
    return PauliOperator(n, dict(zip(_words(keys, n), sums.tolist())))


def lcu_one_norm(op: PauliOperator) -> float:
    """Sum of |coefficients| -- the LCU subnormalization of the operator."""
    return op.one_norm()


def eta_dipole_norm(d_axis: np.ndarray, eta: int) -> float:
    """Sum of the eta largest-magnitude eigenvalues of the one-body dipole
    matrix (the single-particle-rotation subnormalization)."""
    d = np.asarray(d_axis, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("dipole matrix must be square")
    if not 0 < eta <= d.shape[0]:
        raise InputError(f"eta must be in (0, {d.shape[0]}]")
    ev = np.linalg.eigvalsh((d + d.T) / 2)
    mags = np.sort(np.abs(ev))[::-1]
    return float(mags[:eta].sum())

