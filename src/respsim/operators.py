"""Second-quantized fermionic operators, the Jordan-Wigner map, and dense
matrix realizations (full or restricted to a set of basis states).

Conventions used throughout the package:

* Spin-orbital (mode) indices run 0..N-1.  In the occupation-number basis,
  mode p corresponds to bit (N-1-p) of the basis-state integer, i.e. mode 0
  is the most significant bit.  This matches the qubit ordering of the
  Jordan-Wigner image, where qubit 0 is the leftmost tensor factor.
* A term is an ordered product of ladder operators, written left to right;
  the rightmost operator acts on the ket first.
* Canonical normal ordering: creation operators left of annihilation
  operators, each group sorted by descending mode index, with fermionic
  sign tracking and contraction terms from {a_p, a_q^dag} = delta_pq.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError

PRUNE_TOL = 1e-14
DEFAULT_MODE_CAP = 14

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
    """A square matrix (the full 2^n space or a block on chosen basis
    states) with an advisory hermiticity flag."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("DenseOperator needs a square matrix")
        object.__setattr__(self, "matrix", m)
        if self.hermitian and _hermitian_defect(m) > 1e-12:
            raise InputError("matrix flagged hermitian is not hermitian to 1e-12")

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
        self.prune()

    def _add(self, actions: tuple, coeff: complex):
        for p, d in actions:
            if not 0 <= p < self.n_modes:
                raise InputError(f"mode index {p} out of range [0, {self.n_modes})")
            if d not in (0, 1, True, False):
                raise InputError("dagger flag must be boolean")
        key = tuple((int(p), int(bool(d))) for p, d in actions)
        self.terms[key] = self.terms.get(key, 0j) + coeff

    def prune(self, tol: float = PRUNE_TOL):
        self.terms = {a: c for a, c in self.terms.items() if abs(c) > tol}
        return self

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if other.n_modes != self.n_modes:
            raise InputError("mode-count mismatch in operator sum")
        out = FermionOperator(self.n_modes, dict(self.terms))
        for a, c in other.terms.items():
            out._add(a, c)
        return out.prune()

    def scaled(self, factor: complex) -> "FermionOperator":
        return FermionOperator(
            self.n_modes, {a: c * factor for a, c in self.terms.items()}
        )

    def adjoint(self) -> "FermionOperator":
        out = {}
        for actions, coeff in self.terms.items():
            adj = tuple((p, 1 - d) for p, d in reversed(actions))
            out[adj] = out.get(adj, 0j) + np.conj(coeff)
        return FermionOperator(self.n_modes, out)

    def normal_ordered(self) -> "FermionOperator":
        """Rewrite with daggers left (descending mode), annihilators right
        (descending mode), expanding anticommutators as needed."""
        out: dict[tuple, complex] = {}
        stack = [(coeff, list(actions)) for actions, coeff in self.terms.items()]
        while stack:
            coeff, acts = stack.pop()
            i = 0
            reordered = False
            while i < len(acts) - 1:
                (p, dp), (q, dq) = acts[i], acts[i + 1]
                if dp == dq:
                    if p == q:  # a a or a^dag a^dag with equal modes -> 0
                        reordered = True
                        break
                    if p < q:  # want descending within the group
                        acts[i], acts[i + 1] = acts[i + 1], acts[i]
                        stack.append((-coeff, acts))
                        reordered = True
                        break
                elif dp == 0 and dq == 1:  # a_p a_q^dag out of order
                    swapped = acts[:i] + [acts[i + 1], acts[i]] + acts[i + 2:]
                    stack.append((-coeff, swapped))
                    if p == q:
                        stack.append((coeff, acts[:i] + acts[i + 2:]))
                    reordered = True
                    break
                i += 1
            if not reordered:
                key = tuple(acts)
                out[key] = out.get(key, 0j) + coeff
        return FermionOperator(self.n_modes, out)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        a = self.normal_ordered().terms
        b = self.adjoint().normal_ordered().terms
        keys = set(a) | set(b)
        return all(abs(a.get(k, 0j) - b.get(k, 0j)) <= tol for k in keys)

    def dense(self, mode_cap: int = DEFAULT_MODE_CAP) -> DenseOperator:
        """Occupation-basis matrix built directly from ladder-operator action
        (no qubit mapping involved)."""
        n = self.n_modes
        if n > mode_cap:
            raise ResourceError(f"{n} modes exceeds the dense cap of {mode_cap}")
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
        herm = self.is_hermitian()
        return DenseOperator(mat, hermitian=herm)


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
    op = FermionOperator(n)
    for p, q in zip(*np.nonzero(np.abs(T) > PRUNE_TOL)):
        op._add(((p, 1), (q, 0)), T[p, q])
    for p, q, r, s in zip(*np.nonzero(np.abs(V) > PRUNE_TOL)):
        op._add(((p, 1), (q, 1), (r, 0), (s, 0)), V[p, q, r, s])
    return op.prune()


def validate_two_body_symmetry(V: np.ndarray, tol: float = 1e-10):
    """Check the eight-fold real-orbital index symmetry of the V tensor."""
    for perm in TWO_BODY_IMAGES[1:]:
        dev = np.max(np.abs(V - V.transpose(perm)), initial=0.0)
        if dev > tol:
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
    op = FermionOperator(d.shape[0])
    for p, q in zip(*np.nonzero(np.abs(d) > PRUNE_TOL)):
        op._add(((p, 1), (q, 0)), d[p, q])
    return op.prune()


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------

# i**k for the phase exponent k of a Pauli product
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_WORD_CHAR = {"00": "I", "10": "X", "11": "Y", "01": "Z"}


def _masks(word: str) -> tuple[int, int]:
    """(x, z) bit masks of an IXYZ word; qubit q is bit len(word)-1-q."""
    return (int("0" + word.translate(_X_BITS), 2),
            int("0" + word.translate(_Z_BITS), 2))


def _word(x: int, z: int, n: int) -> str:
    """IXYZ word of the (x, z) masks on n qubits."""
    xs, zs = bin(x | 1 << n)[3:], bin(z | 1 << n)[3:]
    return "".join(_WORD_CHAR[a + b] for a, b in zip(xs, zs))


def _product(a: dict, b: dict) -> dict:
    """Product of two mask-keyed Pauli sums, P_a P_b = i**k P_(xa^xb, za^zb).

    Terms are visited with a outer and b inner and entered in that order;
    each phase is ca*cb times the unit i**k (an exact multiply), and the
    result is pruned once, after all terms are summed.
    """
    out: dict[tuple, complex] = {}
    for (xa, za), ca in a.items():
        ka = (xa & za).bit_count()
        for (xb, zb), cb in b.items():
            x, z = xa ^ xb, za ^ zb
            k = (ka + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
                 - (x & z).bit_count()) & 3
            phase = ca * cb
            if k:
                phase *= _I_POW[k]
            out[x, z] = out.get((x, z), 0j) + phase
    return {key: c for key, c in out.items() if abs(c) > PRUNE_TOL}


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

    def _mask_terms(self) -> dict:
        return {_masks(s): c for s, c in self.terms.items()}

    def one_norm(self) -> float:
        return float(sum(abs(c) for c in self.terms.values()))

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if other.n_qubits != self.n_qubits:
            raise InputError("qubit-count mismatch in Pauli sum")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0j) + c
        return PauliOperator(self.n_qubits, out)

    def matmul(self, other: "PauliOperator") -> "PauliOperator":
        if other.n_qubits != self.n_qubits:
            raise InputError("qubit-count mismatch in Pauli product")
        n = self.n_qubits
        prod = _product(self._mask_terms(), other._mask_terms())
        return PauliOperator(n, {_word(x, z, n): c for (x, z), c in prod.items()})

    def dense(self, states=None) -> DenseOperator:
        """Matrix of the operator, or its block on the given basis states.

        Term (x, z) with coefficient c sends basis state b to b ^ x with
        amplitude c * i**|x & z| * (-1)**|z & b|; entries accumulate in term
        order.  ``states`` lists distinct basis-state integers; only rows and
        columns among them are filled, in that order, so a particle-number
        sector never needs the full 2^n x 2^n matrix.
        """
        dim = 1 << self.n_qubits
        if states is None:
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
        idx = np.arange(m)
        mat = np.zeros((m, m), dtype=complex)
        for s, c in self.terms.items():
            x, z = _masks(s)
            rows = pos[cols ^ x]
            hit = rows >= 0
            v = c * _I_POW[(x & z).bit_count() & 3]
            odd = (np.bitwise_count(cols[hit] & z) & 1).astype(bool)
            mat[rows[hit], idx[hit]] += np.where(odd, -v, v)
        herm = all(abs(c.imag) < 1e-12 for c in self.terms.values())
        return DenseOperator(mat, hermitian=herm)


def _jw_ladder(p: int, dagger: int, n: int) -> dict:
    """Mask-keyed JW image of one ladder operator: (Z...Z)(X -/+ iY)/2 at
    mode p."""
    bit = 1 << (n - 1 - p)
    zs = ((1 << n) - 1) ^ ((bit << 1) - 1)  # Z on qubits 0..p-1
    return {(bit, zs): 0.5 + 0j, (bit, zs | bit): -0.5j if dagger else 0.5j}


def jordan_wigner(op: FermionOperator, qubit_cap: int = DEFAULT_MODE_CAP) -> PauliOperator:
    """Map a FermionOperator to its Pauli-sum image.

    Each term's ladder images are multiplied left to right and the product
    is added into one running sum, pruned key by key; a key that cancels
    leaves the sum and re-enters at its end.
    """
    n = op.n_modes
    if n > qubit_cap:
        raise ResourceError(f"{n} modes exceeds the qubit cap of {qubit_cap}")
    ladders = {(p, d): _jw_ladder(p, d, n) for p in range(n) for d in (0, 1)}
    total: dict[tuple, complex] = {}
    for actions, coeff in op.terms.items():
        cur = {(0, 0): coeff} if abs(coeff) > PRUNE_TOL else {}
        for action in actions:  # left-to-right operator product
            cur = _product(cur, ladders[action])
        for key, c in cur.items():
            s = total.get(key, 0j) + c
            if abs(s) > PRUNE_TOL:
                total[key] = s
            else:
                total.pop(key, None)
    return PauliOperator(n, {_word(x, z, n): c for (x, z), c in total.items()})


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


def number_operator(n_modes: int) -> FermionOperator:
    return FermionOperator(n_modes, {((p, 1), (p, 0)): 1.0 for p in range(n_modes)})
