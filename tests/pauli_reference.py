"""Term-by-term reference for the Jordan-Wigner map and the Pauli sector
block.

These are the dict and per-string loops the package's array versions
replaced.  They do the same floating-point operations in the same order, so
the package must match them bit for bit: the same Pauli words in the same
order, the same coefficient bits, and the same matrix bytes.
"""

import numpy as np

from respsim import PauliOperator
from respsim.operators import PRUNE_TOL

# i**k for the phase exponent k of a Pauli product
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_WORD_CHAR = {"00": "I", "10": "X", "11": "Y", "01": "Z"}


def pauli_masks(word):
    """(x, z) bit masks of an IXYZ word; qubit q is bit len(word)-1-q."""
    return (int("0" + word.translate(_X_BITS), 2),
            int("0" + word.translate(_Z_BITS), 2))


def pauli_word(x, z, n):
    """IXYZ word of the (x, z) masks on n qubits."""
    xs, zs = bin(x | 1 << n)[3:], bin(z | 1 << n)[3:]
    return "".join(_WORD_CHAR[a + b] for a, b in zip(xs, zs))


def pauli_product(a, b):
    """Product of two mask-keyed Pauli sums, P_a P_b = i**k P_(xa^xb, za^zb).

    Terms are visited with a outer and b inner and entered in that order;
    each phase is ca*cb times the unit i**k (an exact multiply), and the
    result is pruned once, after all terms are summed.
    """
    out = {}
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


def dict_ladder(p, dagger, n):
    """Mask-keyed JW image of one ladder operator: (Z...Z)(X -/+ iY)/2 at
    mode p."""
    bit = 1 << (n - 1 - p)
    zs = ((1 << n) - 1) ^ ((bit << 1) - 1)  # Z on qubits 0..p-1
    return {(bit, zs): 0.5 + 0j, (bit, zs | bit): -0.5j if dagger else 0.5j}


def dict_jordan_wigner(op):
    """Each term's ladder images multiplied left to right by
    `pauli_product`, then added into one running sum, pruned key by key; a
    key that cancels leaves the sum and re-enters at its end."""
    n = op.n_modes
    ladders = {(p, d): dict_ladder(p, d, n) for p in range(n) for d in (0, 1)}
    total = {}
    for actions, coeff in op.terms.items():
        cur = {(0, 0): coeff} if abs(coeff) > PRUNE_TOL else {}
        for action in actions:
            cur = pauli_product(cur, ladders[action])
        for key, c in cur.items():
            s = total.get(key, 0j) + c
            if abs(s) > PRUNE_TOL:
                total[key] = s
            else:
                total.pop(key, None)
    return PauliOperator(n, {pauli_word(x, z, n): c
                             for (x, z), c in total.items()})


def loop_dense(op, states=None):
    """Matrix (or block on ``states``) of a PauliOperator, one numpy round
    per string, entries accumulated in term order."""
    dim = 1 << op.n_qubits
    cols = (np.arange(dim, dtype=np.int64) if states is None
            else np.asarray(states, dtype=np.int64))
    m = cols.size
    pos = np.full(dim, -1, dtype=np.int64)
    pos[cols] = np.arange(m)
    idx = np.arange(m)
    mat = np.zeros((m, m), dtype=complex)
    for s, c in op.terms.items():
        x, z = pauli_masks(s)
        rows = pos[cols ^ x]
        hit = rows >= 0
        v = c * _I_POW[(x & z).bit_count() & 3]
        odd = (np.bitwise_count(cols[hit] & z) & 1).astype(bool)
        mat[rows[hit], idx[hit]] += np.where(odd, -v, v)
    return mat
