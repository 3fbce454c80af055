"""Second-quantized fermionic operators, the Jordan-Wigner map, dense
matrix realizations (full or restricted to a set of basis states), and the
sector blocks and one-norms that diagonalize takes straight from the
integral tensors.

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
  string (Bravyi & Kitaev, Ann. Phys. 298, 210 (2002)).  Each contribution,
  c / 2^j times a power of i (exact), is added into its string's sum from 0j
  in term order and, within a term, with the first factor's choice as the
  most significant slot bit, as the dict loop in tests/pauli_reference.py
  does.  Sums at or below PRUNE_TOL drop once, at the end; strings come out
  in the order of their first contribution.  One-norms sum |c| in that order.
* The one-norm of an image needs no string: majorana_one_norm sums the same
  Majorana products as jordan_wigner and adds the magnitudes in the same
  order.  Sector blocks need neither: sector_block builds them from the
  tensors by ladder action (see its docstring).  The Pauli path stays as
  the reference both are tested against.
* Size caps are constants: jordan_wigner, sector_block and
  majorana_one_norm take at most DEFAULT_MODE_CAP modes, and full 2^n x 2^n
  matrices are built up to FULL_SPACE_MODE_CAP modes; both refuse before
  allocating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, groupby

import numpy as np

from .errors import InputError, ResourceError

PRUNE_TOL = 1e-14
# largest mode count that jordan_wigner maps and that sector_block and
# majorana_one_norm take (so diagonalize takes); it must stay <= 31, since
# the 2n-bit Majorana masks and string keys x << n | z are int64
DEFAULT_MODE_CAP = 14
# largest mode count whose full 2^n x 2^n matrix is built: 4096^2 complex
# entries, 256 MiB
FULL_SPACE_MODE_CAP = 12
# terms expanded at once by jordan_wigner, and matrix entries filled at
# once by PauliOperator.dense; both bound temporaries, not results
_JW_BLOCK = 256
_DENSE_BLOCK = 1 << 14
# (lower state, preimage, preimage) triples formed at once by sector_block
_SECTOR_BLOCK = 1 << 16

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


def _ladder_terms(tensor: np.ndarray) -> tuple:
    """Terms of the ladder sum of a rank-2k tensor, sum t[p1..p2k]
    a_p1^dag..a_pk^dag a_pk+1..a_p2k, over the entries above PRUNE_TOL in
    np.nonzero (row-major) order: their (count, 2k, 2) (mode, dagger)
    factors and complex coefficients."""
    index = np.nonzero(np.abs(tensor) > PRUNE_TOL)
    acts = np.empty((index[0].size, tensor.ndim, 2), dtype=np.int64)
    acts[:, :, 0] = np.stack(index, axis=1)
    acts[:, :, 1] = np.repeat([1, 0], tensor.ndim // 2)
    return acts, tensor[index].astype(complex)


def _ladder_sum(tensor: np.ndarray) -> FermionOperator:
    """The ladder sum of _ladder_terms as a FermionOperator on shape[0]
    modes, its terms in the same order."""
    acts, coeffs = _ladder_terms(tensor)
    op = FermionOperator(tensor.shape[0])
    op.terms = {tuple(map(tuple, a)): c
                for a, c in zip(acts.tolist(), coeffs.tolist())}
    return op


def validate_hamiltonian(T: np.ndarray, V: np.ndarray) -> tuple:
    """T and V as float arrays, once T is a square matrix symmetric to
    1e-10 and V an (n, n, n, n) tensor with the eight-fold index symmetry
    to 1e-10."""
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
    return T, V


def build_hamiltonian(T: np.ndarray, V: np.ndarray) -> FermionOperator:
    """H = sum T[p,q] a_p^dag a_q + sum V[p,q,r,s] a_p^dag a_q^dag a_r a_s."""
    T, V = validate_hamiltonian(T, V)
    op = _ladder_sum(T)
    op.terms.update(_ladder_sum(V).terms)
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


def validate_dipole(d_axis: np.ndarray) -> np.ndarray:
    """One dipole axis as a float array, once it is a square matrix
    symmetric to 1e-10."""
    d = np.asarray(d_axis, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError("dipole matrix must be square")
    if np.max(np.abs(d - d.T), initial=0.0) > 1e-10:
        raise InputError("dipole matrix is not symmetric to 1e-10")
    return d


def build_dipole(d_axis: np.ndarray) -> FermionOperator:
    """One-body operator sum d[p,q] a_p^dag a_q for one Cartesian axis."""
    return _ladder_sum(validate_dipole(d_axis))


def _check_mode_cap(n: int):
    if n > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"{n} modes exceeds the qubit cap of {DEFAULT_MODE_CAP}")


def _ladder_tensor(tensor) -> np.ndarray:
    """A rank-2 or rank-4 tensor with equal axes as a float array, on at
    most DEFAULT_MODE_CAP modes."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim not in (2, 4) or len(set(t.shape)) != 1:
        raise InputError(
            f"tensor shape {t.shape} is not (n, n) or (n, n, n, n)")
    _check_mode_cap(t.shape[0])
    return t


def sector_block(tensor, n_electrons: int) -> np.ndarray:
    """Real block of a tensor's ladder sum (T or a dipole axis: sum
    t[q,r] a_q^dag a_r; V: sum V[p,q,r,s] a_p^dag a_q^dag a_r a_s) on the
    n_electrons sector, rows and columns in ascending basis-state order.

    With k = 1 for a matrix and 2 for V, the sum is
    sum W[(q..), (r..)] (a_q1..a_qk)^dag (a_r1..a_rk) over ascending mode
    tuples, W being the matrix itself, or the pair block of V
    antisymmetrized over both pairs.  Each state s of the
    (n_electrons - k)-electron sector has as preimages the states j = s
    plus k empty modes r1 < .. < rk, and a_r1..a_rk |j> = sign |s>; so
    entry (i, j) sums sign_i sign_j W[(q..), (r..)] over the s that i and
    j share.  One np.bincount adds the (s, i, j) triples in that order; the
    triples are formed _SECTOR_BLOCK at a time.  Entries at or below
    PRUNE_TOL drop first, so the block is that of build_hamiltonian's or
    build_dipole's operator.
    """
    t = _ladder_tensor(tensor)
    n, k = t.shape[0], t.ndim // 2
    if not 0 <= n_electrons <= n:
        raise InputError(f"electron count {n_electrons} outside [0, {n}]")
    t = np.where(np.abs(t) > PRUNE_TOL, t, 0.0)  # as the ladder sums drop
    if k == 2:
        t = (t.transpose(1, 0, 2, 3) - t - t.transpose(1, 0, 3, 2)
             + t.transpose(0, 1, 3, 2))
    W = t.reshape(n ** k, n ** k)
    states = np.arange(1 << n, dtype=np.int64)
    count = np.bitwise_count(states)
    in_sector = count == n_electrons
    m = int(np.count_nonzero(in_sector))
    row = np.cumsum(in_sector) - 1
    lower = states[count == n_electrons - k]
    # occupations by mode, occupied modes before each, empty modes ascending
    occ = (lower[:, None] >> np.arange(n - 1, -1, -1)) & 1
    before = np.cumsum(occ, axis=1) - occ
    empty = np.nonzero(occ == 0)[1].reshape(lower.size, n - n_electrons + k)
    picks = np.array(list(combinations(range(empty.shape[1]), k)))
    modes = empty[:, picks]  # (lower, preimage, k)
    parity = before[np.arange(lower.size)[:, None, None], modes].sum(axis=2)
    sign = 1.0 - 2.0 * ((parity + k * (k - 1) // 2) & 1)
    pre = row[lower[:, None] | np.sum(1 << (n - 1 - modes), axis=2)]
    tup = modes @ n ** np.arange(k - 1, -1, -1)
    size = picks.shape[0]
    flat = np.empty((lower.size, size, size), dtype=np.int64)
    weight = np.empty(flat.shape)
    step = max(1, _SECTOR_BLOCK // size ** 2)
    for a in range(0, lower.size, step):
        b = a + step
        np.add(pre[a:b, :, None] * m, pre[a:b, None, :], out=flat[a:b])
        np.multiply(W[tup[a:b, :, None], tup[a:b, None, :]],
                    sign[a:b, :, None] * sign[a:b, None, :], out=weight[a:b])
    return np.bincount(flat.ravel(), weight.ravel(),
                       minlength=m * m).reshape(m, m)


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
        return mat


def _monomials(acts: np.ndarray) -> tuple:
    """Majorana products of B terms of equal length j, on (B, 2**j) arrays.

    ``acts`` is (B, j, 2), one (mode, dagger) pair per factor.  In slot s,
    factor f picks Majorana 2p + t, t the bit of s at j-1-f, so the first
    factor's choice is the most significant bit.  Returns each product's
    mask (the XOR of 1 << index, so equal pairs cancel) and its i-exponent:
    1 for an annihilator's Y choice, 3 for a creator's, and 2 per index
    inversion, whose parity is that of the earlier indices above each one.
    """
    j = acts.shape[1]
    t = (np.arange(1 << j)[:, None] >> np.arange(j - 1, -1, -1)) & 1
    index = 2 * acts[:, None, :, 0] + t
    mask = np.zeros(index.shape[:2], dtype=np.int64)
    inversions = np.zeros_like(mask)
    for f in range(j):
        inversions += np.bitwise_count(mask >> (index[..., f] + 1))
        mask ^= 1 << index[..., f]
    return mask, (1 + 2 * acts[:, :, 1]) @ t.T + 2 * inversions


def _strings(masks: np.ndarray, n: int) -> tuple:
    """Pauli string keys x << n | z of sorted Majorana products, and the
    i-exponent each product carries on top of its string.

    Qubit p gets X from one of Majoranas 2p, 2p+1, and Z from 2p+1 and from
    every index above 2p+1.  Multiplied out in ascending order, no Z lands on
    a later X, so the exponent is the number of Y factors minus |x & z|.
    """
    x = z = y = np.zeros_like(masks)
    for p in range(n):
        even, odd = (masks >> 2 * p) & 1, (masks >> 2 * p + 1) & 1
        x = x << 1 | (even ^ odd)
        z = z << 1 | (odd ^ (np.bitwise_count(masks >> 2 * p + 2) & 1))
        y = y + odd
    return x << n | z, y - np.bitwise_count(x & z)


def _slots(known: np.ndarray, slot_of: np.ndarray,
           masks: np.ndarray) -> tuple:
    """Slots of ``masks``, which number distinct masks in order of first
    contribution.  ``known`` holds the masks seen so far, sorted, and
    ``slot_of`` their slots, so the stable sort merges one sorted run with
    the block.  Returns (slots, known, slot_of, new masks in slot order)."""
    both = np.concatenate((known, masks))
    order = np.argsort(both, kind="stable")
    ranked = both[order]
    head = np.ones(both.size, dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    first = order[head]  # the earliest position of each distinct mask
    fresh = np.zeros(masks.size, dtype=bool)
    fresh[first[first >= known.size] - known.size] = True
    at = np.concatenate((slot_of, known.size + np.cumsum(fresh) - 1))
    slot = np.empty(both.size, dtype=np.int64)
    slot[order] = at[first][np.cumsum(head) - 1]
    return slot[known.size:], ranked[head], at[first], masks[fresh]


def _words(keys: np.ndarray, n: int) -> list:
    """IXYZ words of string keys x << n | z."""
    bits = keys[:, None] >> np.arange(n - 1, -1, -1)
    xz = 2 * ((bits >> n) & 1) + (bits & 1)
    text = _WORD_BYTES[xz].tobytes().decode("ascii")
    return [text[i * n:(i + 1) * n] for i in range(len(keys))]


def _majorana_sums(runs) -> tuple:
    """Distinct Majorana masks, in order of first contribution, and each
    mask's sum before its string's own phase.

    ``runs`` yields (acts, coeffs): B terms of one length j as (B, j, 2)
    (mode, dagger) factors, and their complex coefficients.  Blocks of
    _JW_BLOCK terms expand into 2^j products each (_monomials), each mask
    takes the slot of its first contribution (_slots), and every
    contribution, c / 2^j times a power of i, is added into its slot's sum
    from 0j in term order and, within a term, in slot order.  The string's
    phase i^k is one quarter turn of the whole sum, so it is exact to apply
    it afterwards, and a one-norm never needs it.
    """
    known = slot_of = masks = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0, dtype=complex)
    for acts, coeffs in runs:
        scaled = coeffs[:, None] * 0.5 ** acts.shape[1]
        for b in range(0, len(acts), _JW_BLOCK):
            mask, exp = _monomials(acts[b:b + _JW_BLOCK])
            slot, known, slot_of, fresh = _slots(known, slot_of, mask.ravel())
            masks = np.concatenate((masks, fresh))
            sums = np.concatenate((sums, np.zeros(fresh.size, dtype=complex)))
            np.add.at(sums, slot, (scaled[b:b + _JW_BLOCK]
                                   * _I_POW_ARRAY[exp & 3]).ravel())
    return masks, sums


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Pauli-sum image of a FermionOperator, through its Majorana products.

    Runs of equal-length terms are summed mask by mask (_majorana_sums);
    each mask's string and phase are worked out once (_strings), the phase
    turns the mask's sum, and sums at or below PRUNE_TOL drop once, at the
    end.  Operators on more than DEFAULT_MODE_CAP modes are refused.
    """
    n = op.n_modes
    _check_mode_cap(n)
    actions = list(op.terms)
    coeffs = np.fromiter(op.terms.values(), dtype=complex, count=len(actions))
    ladders = np.fromiter(chain.from_iterable(chain.from_iterable(actions)),
                          dtype=np.int64).reshape(-1, 2)
    runs = []
    for j, run in groupby(map(len, actions)):
        count = len(list(run))
        runs.append((ladders[:count * j].reshape(count, j, 2),
                     coeffs[:count]))
        ladders, coeffs = ladders[count * j:], coeffs[count:]
    masks, sums = _majorana_sums(runs)
    strings, phases = _strings(masks, n)
    # a quarter turn is exact but can leave -0.0 where the sum of turned
    # contributions from 0j has +0.0; adding 0 clears it
    sums = sums * _I_POW_ARRAY[phases & 3] + 0
    keep = np.hypot(sums.real, sums.imag) > PRUNE_TOL
    return PauliOperator(n, dict(zip(_words(strings[keep], n),
                                     sums[keep].tolist())))


def lcu_one_norm(op: PauliOperator) -> float:
    """Sum of |coefficients| -- the LCU subnormalization of the operator."""
    return float(sum(abs(c) for c in op.terms.values()))


def majorana_one_norm(*tensors) -> float:
    """LCU one-norm of the Jordan-Wigner image of the tensors' ladder sums
    taken in turn (T then V for the Hamiltonian), from the Majorana masks
    alone: lcu_one_norm(jordan_wigner(op)) bit for bit, with op the sum as
    build_hamiltonian or build_dipole builds it.  The sums are the ones
    jordan_wigner turns by each string's phase, which leaves every
    magnitude as it is; the same PRUNE_TOL prune drops the small ones, and
    a builtin sum adds the magnitudes in slot order, the order of the
    image's terms."""
    ts = [_ladder_tensor(t) for t in tensors]
    if len({t.shape[0] for t in ts}) > 1:
        raise InputError("tensors act on different mode counts")
    _, sums = _majorana_sums(map(_ladder_terms, ts))
    mags = np.hypot(sums.real, sums.imag)
    return float(sum(mags[mags > PRUNE_TOL].tolist()))


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

