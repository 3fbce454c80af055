"""Term-by-term reference for the Jordan-Wigner map and the Pauli sector
block.

These are the dict and per-string loops the package's array versions
replaced.  They do the same floating-point operations in the same order, so
the package must match them bit for bit: the same Pauli words in the same
order, the same coefficient bits, and the same matrix bytes.
"""

import numpy as np

from respsim import PauliOperator
from respsim.operators import PRUNE_TOL, _masks, _product, _word

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def dict_ladder(p, dagger, n):
    """Mask-keyed JW image of one ladder operator: (Z...Z)(X -/+ iY)/2 at
    mode p."""
    bit = 1 << (n - 1 - p)
    zs = ((1 << n) - 1) ^ ((bit << 1) - 1)  # Z on qubits 0..p-1
    return {(bit, zs): 0.5 + 0j, (bit, zs | bit): -0.5j if dagger else 0.5j}


def dict_jordan_wigner(op):
    """Each term's ladder images multiplied left to right by `_product`,
    then added into one running sum, pruned key by key; a key that cancels
    leaves the sum and re-enters at its end."""
    n = op.n_modes
    ladders = {(p, d): dict_ladder(p, d, n) for p in range(n) for d in (0, 1)}
    total = {}
    for actions, coeff in op.terms.items():
        cur = {(0, 0): coeff} if abs(coeff) > PRUNE_TOL else {}
        for action in actions:
            cur = _product(cur, ladders[action])
        for key, c in cur.items():
            s = total.get(key, 0j) + c
            if abs(s) > PRUNE_TOL:
                total[key] = s
            else:
                total.pop(key, None)
    return PauliOperator(n, {_word(x, z, n): c for (x, z), c in total.items()})


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
        x, z = _masks(s)
        rows = pos[cols ^ x]
        hit = rows >= 0
        v = c * _I_POW[(x & z).bit_count() & 3]
        odd = (np.bitwise_count(cols[hit] & z) & 1).astype(bool)
        mat[rows[hit], idx[hit]] += np.where(odd, -v, v)
    return mat
