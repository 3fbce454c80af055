"""Term-by-term reference for the Jordan-Wigner map.

The reference expands every term into its Majorana products in a dict
loop and folds each product from the identity, string by string, with the
Pauli product rule on IXYZ-word masks, so it shares neither the package's
Majorana table nor its X^x Z^z phase bookkeeping.  It adds the same exact
contributions (c / 2^j times a power of i) in the same order, term after
term and, within a term, with the first factor's choice as the most
significant, into sums that start from 0j and are pruned once, at the
end.  So the package must match it bit for bit: the same Pauli words in
the same order and the same coefficient bits.
"""

import itertools

from respsim.models import PRUNE_TOL
from respsim.operators import PauliOperator

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


def string_product(a, b):
    """((x, z), k) with P_a P_b = i**k P_(x, z) for two mask pairs."""
    (xa, za), (xb, zb) = a, b
    x, z = xa ^ xb, za ^ zb
    k = ((xa & za).bit_count() + (xb & zb).bit_count()
         + 2 * (za & xb).bit_count() - (x & z).bit_count()) & 3
    return (x, z), k


def pauli_product(a, b):
    """Product of two mask-keyed Pauli sums, P_a P_b = i**k P_(xa^xb, za^zb).

    Terms are visited with a outer and b inner and entered in that order;
    each phase is ca*cb times the unit i**k (an exact multiply), and the
    result is pruned once, after all terms are summed.
    """
    out = {}
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            key, k = string_product(key_a, key_b)
            phase = ca * cb
            if k:
                phase *= _I_POW[k]
            out[key] = out.get(key, 0j) + phase
    return {key: c for key, c in out.items() if abs(c) > PRUNE_TOL}


def majorana_string(m, n):
    """Mask pair of Majorana m under Jordan-Wigner: Z on the qubits before
    p = m // 2, then X at p for even m and Y for odd m."""
    p, odd = divmod(m, 2)
    bit = 1 << (n - 1 - p)
    zs = ((1 << n) - 1) ^ ((bit << 1) - 1)  # Z on qubits 0..p-1
    return bit, zs | bit * odd


def dict_jordan_wigner(op):
    """a_p = (g_2p + i g_2p+1)/2 and a_p^dag = (g_2p - i g_2p+1)/2, so a
    term of length j is the 2^j choices of one Majorana per factor (the
    first factor's choice most significant).  Each choice is multiplied
    out left to right by `string_product` and added into one running sum
    from 0j, with c / 2^j times i for an annihilator's odd choice, -i for a
    creator's, and the product's phase; PauliOperator prunes the sums."""
    n = op.n_modes
    total = {}
    for actions, coeff in op.terms.items():
        for choice in itertools.product((0, 1), repeat=len(actions)):
            key, k = (0, 0), 0
            for (p, dagger), t in zip(actions, choice):
                key, dk = string_product(key, majorana_string(2 * p + t, n))
                k += dk + t * (3 if dagger else 1)
            c = coeff * 0.5 ** len(actions) * _I_POW[k & 3]
            total[key] = total.get(key, 0j) + c
    return PauliOperator(n, {pauli_word(x, z, n): c
                             for (x, z), c in total.items()})

