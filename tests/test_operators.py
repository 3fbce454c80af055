"""Fermionic algebra, Pauli algebra, and the mode->qubit mapping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_dense, naive_term_matrix, spin_orbital
from pauli_reference import (dict_jordan_wigner, pauli_masks, pauli_product,
                             pauli_word)
from respsim import (
    InputError,
    ResourceError,
    make_hubbard_dimer,
    make_random_model,
    validate_two_body_symmetry,
)
from respsim.models import DEFAULT_MODE_CAP
from respsim.operators import (FULL_SPACE_MODE_CAP, FermionOperator,
                               PauliOperator, build_dipole, build_hamiltonian,
                               eta_dipole_norm, jordan_wigner, lcu_one_norm)


def random_fermion_op(rng, n_modes, n_terms=5, max_len=4):
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_len + 1))
        actions = tuple(
            (int(rng.integers(0, n_modes)), int(rng.integers(0, 2)))
            for _ in range(length))
        terms[actions] = complex(rng.normal(), rng.normal())
    return FermionOperator(n_modes, terms)


# ---------------------------------------------------------------------------
# FermionOperator basics
# ---------------------------------------------------------------------------

def test_fermion_dense_matches_naive_builder():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        op = random_fermion_op(rng, n)
        assert np.allclose(op.dense(), naive_dense(n, op.terms),
                           atol=1e-12)


def test_anticommutation_relations():
    n = 3
    for p in range(n):
        for q in range(n):
            a_p = naive_term_matrix(n, [(p, 0)])
            adag_q = naive_term_matrix(n, [(q, 1)])
            anti = a_p @ adag_q + adag_q @ a_p
            expected = np.eye(2 ** n) if p == q else np.zeros((2 ** n,) * 2)
            assert np.allclose(anti, expected)
            # and the package dense agrees with the naive one
            op = FermionOperator(n, {((p, 0), (q, 1)): 1.0,
                                     ((q, 1), (p, 0)): 1.0})
            assert np.allclose(op.dense(), expected)


def test_operator_validation_errors():
    with pytest.raises(InputError):
        FermionOperator(-1)
    with pytest.raises(InputError):
        FermionOperator(2, {((5, 1),): 1.0})      # mode out of range


def test_prune_drops_tiny_terms():
    op = FermionOperator(2, {((0, 1), (0, 0)): 1e-16, ((1, 1), (1, 0)): 1.0})
    assert len(op) == 1


def test_number_operator_counts_occupation():
    n = 3
    number = FermionOperator(n, {((p, 1), (p, 0)): 1.0 for p in range(n)})
    mat = number.dense()
    pops = [bin(b).count("1") for b in range(2 ** n)]
    assert np.allclose(mat, np.diag(pops))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_hamiltonian_matches_naive(dimer):
    T, V, _ = spin_orbital(dimer)
    H = build_hamiltonian(T, V).dense()
    n = len(T)
    naive = np.zeros_like(H)
    for p in range(n):
        for q in range(n):
            if T[p, q]:
                naive = naive + T[p, q] * naive_term_matrix(
                    n, [(p, 1), (q, 0)])
    for idx in zip(*np.nonzero(np.abs(V) > 0)):
        p, q, r, s = (int(i) for i in idx)
        naive = naive + V[idx] * naive_term_matrix(
            n, [(p, 1), (q, 1), (r, 0), (s, 0)])
    assert np.allclose(H, naive, atol=1e-12)


def test_build_hamiltonian_rejects_asymmetric_inputs():
    T = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError):
        build_hamiltonian(T, np.zeros((2, 2, 2, 2)))
    V = np.zeros((2, 2, 2, 2))
    V[0, 1, 0, 1] = 1.0   # breaks the index symmetry
    with pytest.raises(InputError):
        validate_two_body_symmetry(V)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "1.0", True, 1j], ids=repr)
@pytest.mark.parametrize("build", [
    lambda m: build_hamiltonian(m, np.zeros((2,) * 4)),
    lambda m: build_hamiltonian(np.zeros((2, 2)), np.full((2,) * 4, m[1, 1])),
    build_dipole, lambda m: eta_dipole_norm(m, 1)],
    ids=["T", "V", "dipole", "eta_dipole_norm"])
def test_reference_builders_take_only_finite_real_entries(build, bad):
    # the reference admits its tensors' numbers as ModelSpec does, through
    # errors.check_reals: no entry is converted from a string or a bool
    m = np.zeros((2, 2), dtype=object)
    m[1, 1] = bad
    with pytest.raises(InputError, match="must be finite real numbers"):
        build(m)


def test_build_dipole_is_hermitian_one_body(dimer):
    op = build_dipole(spin_orbital(dimer)[2][0])
    D = op.dense()
    assert np.allclose(D, D.conj().T)


# ---------------------------------------------------------------------------
# Pauli layer
# ---------------------------------------------------------------------------

def reference_matmul(a, b):
    """a b by the mask-keyed product of the Jordan-Wigner reference."""
    n = a.n_qubits
    prod = pauli_product({pauli_masks(s): c for s, c in a.terms.items()},
                         {pauli_masks(s): c for s, c in b.terms.items()})
    return PauliOperator(n, {pauli_word(x, z, n): c
                             for (x, z), c in prod.items()})


def test_pauli_matmul_phases():
    # the reference's product, which the Jordan-Wigner arbiter rests on
    x, y, z, i = (pauli_masks(w) for w in "XYZI")
    assert pauli_product({x: 1.0}, {y: 1.0}) == {z: 1j}
    assert pauli_product({y: 1.0}, {x: 1.0}) == {z: -1j}
    assert pauli_product({z: 1.0}, {z: 1.0}) == {i: (1 + 0j)}


def test_pauli_dense_known_string():
    op = PauliOperator(2, {"XZ": 2.0})
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(op.dense(), 2.0 * np.kron(X, Z))


def test_pauli_validation():
    with pytest.raises(InputError):
        PauliOperator(2, {"XQ": 1.0})
    with pytest.raises(InputError):
        PauliOperator(2, {"X": 1.0})              # wrong length
    op = PauliOperator(2, {"XZ": 1.0})
    for bad in ([0, 4], [1, 1], [-1], [[0, 1]]):
        with pytest.raises(InputError):
            op.dense(states=bad)


# test-local single-qubit matrices: the kron chain the package no longer has
_KRON_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(op):
    dim = 2 ** op.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for word, c in op.terms.items():
        m = np.ones((1, 1), dtype=complex)
        for ch in word:
            m = np.kron(m, _KRON_PAULI[ch])
        out += c * m
    return out


def pauli_sums(n, max_terms=6):
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.complex_numbers(min_magnitude=0.01, max_magnitude=2.0,
                                allow_nan=False, allow_infinity=False)
    return st.dictionaries(words, coeffs, max_size=max_terms).map(
        lambda terms: PauliOperator(n, terms))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_pauli_dense_block_is_the_full_matrix_restricted(data, n):
    op = data.draw(pauli_sums(n, max_terms=10))
    states = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1,
                                max_size=2 ** n, unique=True))
    block = op.dense(states=states)
    assert block.shape == (len(states), len(states))
    assert np.array_equal(block, op.dense()[np.ix_(states, states)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_pauli_matmul_matches_kron_products(data, n):
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    wa, wb = data.draw(word), data.draw(word)
    a, b = PauliOperator(n, {wa: 1.0}), PauliOperator(n, {wb: 1.0})
    # one string times one string is one string with a unit phase, exactly
    prod = reference_matmul(a, b)
    assert len(prod) == 1
    (phase,) = prod.terms.values()
    assert phase in (1, 1j, -1, -1j)
    assert np.array_equal(kron_matrix(prod), kron_matrix(a) @ kron_matrix(b))
    # sums multiply term by term
    A, B = data.draw(pauli_sums(n)), data.draw(pauli_sums(n))
    assert np.allclose(kron_matrix(reference_matmul(A, B)),
                       kron_matrix(A) @ kron_matrix(B), atol=1e-12)
    assert np.array_equal(A.dense(), kron_matrix(A))


def test_jordan_wigner_single_ladder():
    # a_0^dag on one mode: (X - iY)/2 = |1><0|
    jw = jordan_wigner(FermionOperator(1, {((0, 1),): 1.0}))
    expect = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.allclose(jw.dense(), expect)


def test_jordan_wigner_matches_fermion_dense():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        op = random_fermion_op(rng, n)
        assert np.allclose(jordan_wigner(op).dense(),
                           op.dense(), atol=1e-12)


def assert_same_bits(got, want):
    """Same words in the same order, and the same coefficient bits."""
    assert got.n_qubits == want.n_qubits
    assert list(got.terms) == list(want.terms)
    assert [(c.real.hex(), c.imag.hex()) for c in got.terms.values()] == \
        [(c.real.hex(), c.imag.hex()) for c in want.terms.values()]


# coefficients that cancel exactly or nearly, shrink below PRUNE_TOL
# (1e-14) within a product, or are generic complex numbers down to 1e-13
COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 1j, -1j, 0.25 - 0.5j, 1 - 1e-14,
                     -1 + 3e-14, 1e-13, -1e-13, 3e-14, 1e-13j]),
    st.complex_numbers(min_magnitude=1e-13, max_magnitude=2.0,
                       allow_nan=False, allow_infinity=False),
)


def fermion_ops(n, max_terms=12):
    ladder = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, 1))
    actions = st.lists(ladder, max_size=4 if n else 0).map(tuple)
    return st.dictionaries(actions, COEFFS, max_size=max_terms).map(
        lambda terms: FermionOperator(n, terms))


# a0 a0^dag maps to I: 5e-13j and Z: 5e-13j, two small sums that stay
@example(op=FermionOperator(1, {((0, 0), (0, 1)): 1e-12j}))
@settings(max_examples=150, deadline=None)
@given(op=st.integers(0, 6).flatmap(fermion_ops))
def test_jordan_wigner_matches_the_dict_reference_bit_for_bit(op):
    assert_same_bits(jordan_wigner(op), dict_jordan_wigner(op))


@pytest.mark.parametrize("args", [
    None, (2, 2, 0), (3, 2, 4), (3, 4, 1), (4, 4, 1), (4, 2, 5),
], ids=lambda a: "dimer" if a is None else "random-n{}-ne{}-s{}".format(*a))
def test_jordan_wigner_of_model_operators_matches_the_dict_reference(args):
    model = (make_hubbard_dimer(1.0, 2.0, 0.5) if args is None
             else make_random_model(*args))
    T, V, D = spin_orbital(model)
    ops = [build_hamiltonian(T, V)] + [build_dipole(d) for d in D]
    for op in ops:
        assert_same_bits(jordan_wigner(op), dict_jordan_wigner(op))


@pytest.mark.parametrize("cancel", [1.0, 1 - 1e-14], ids=["exact", "near"])
def test_jordan_wigner_cancelled_string_keeps_its_first_place(cancel):
    # a0^dag a0 = (I - Z0)/2 and a0 a0^dag = (I + Z0)/2: together Z0 sums
    # to 0, or to about -5e-15, at or below PRUNE_TOL, so it drops at the end
    terms = {((0, 1), (0, 0)): 1.0, ((0, 0), (0, 1)): cancel}
    assert list(jordan_wigner(FermionOperator(2, terms)).terms) == ["II"]
    # a1^dag a1 then enters Z1; a0^dag a0 a0^dag a0 = a0^dag a0 adds to Z0's
    # sum where it stands: Z0 keeps its first place, ahead of Z1, and the
    # remainder of the cancellation
    terms[((1, 1), (1, 0))] = 1.0
    terms[((0, 1), (0, 0), (0, 1), (0, 0))] = 2.0
    op = FermionOperator(2, terms)
    pauli = jordan_wigner(op)
    assert list(pauli.terms) == ["II", "ZI", "IZ"]
    assert pauli.terms["IZ"] == -0.5
    remainder = (cancel - 1) / 2
    assert pauli.terms["ZI"] == pytest.approx(-1 + remainder, rel=0, abs=1e-15)
    assert (pauli.terms["ZI"] == -1.0) == (remainder == 0)
    assert_same_bits(pauli, dict_jordan_wigner(op))


def test_jordan_wigner_prunes_only_the_final_sums():
    # 3e-14 a0^dag a1 gives 7.5e-15 per Majorana product, at or below
    # PRUNE_TOL, yet each still reaches the strings a1^dag a0 entered
    hop = {((1, 1), (0, 0)): 1.0}
    op = FermionOperator(2, {**hop, ((0, 1), (1, 0)): 3e-14})
    pauli, alone = jordan_wigner(op), jordan_wigner(FermionOperator(2, hop))
    assert list(pauli.terms) == list(alone.terms)
    assert sorted(abs(c) for c in alone.terms.values()) == [0.25] * 4
    for word, c in pauli.terms.items():
        assert abs(c - alone.terms[word]) == pytest.approx(7.5e-15)
    assert_same_bits(pauli, dict_jordan_wigner(op))
    # alone, the small term's sums stay at 7.5e-15 and drop at the end
    tiny = FermionOperator(2, {((0, 1), (1, 0)): 3e-14})
    assert jordan_wigner(tiny).terms == {} == dict_jordan_wigner(tiny).terms


def test_jordan_wigner_total_cancellation_is_empty():
    # a0^dag a0 + a0 a0^dag - 1 = 0
    op = FermionOperator(1, {((0, 1), (0, 0)): 1.0, ((0, 0), (0, 1)): 1.0,
                             (): -1.0})
    pauli = jordan_wigner(op)
    assert pauli.terms == {} and len(pauli) == 0
    assert not pauli.dense().any()
    assert jordan_wigner(FermionOperator(3)).terms == {}


def test_jordan_wigner_memory_is_bounded():
    T, V, _ = spin_orbital(make_random_model(5, 4, 0))
    H = build_hamiltonian(T, V)
    tracemalloc.start()
    try:
        jordan_wigner(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2 ** 20


def test_full_space_matrices_are_capped_before_allocation():
    # one mode above the cap: the full matrix would be 8192^2 complex
    # entries (1 GiB)
    n = FULL_SPACE_MODE_CAP + 1
    fermion = FermionOperator(n, {((0, 1), (0, 0)): 1.0})
    pauli = PauliOperator(n, {"Z" + "I" * (n - 1): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            fermion.dense()
        with pytest.raises(ResourceError):
            pauli.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the sector block on the same operator is small and allowed
    assert pauli.dense(states=[0, 1, 2]).shape == (3, 3)


def test_jordan_wigner_qubit_cap():
    # a Pauli block indexes all 2^n basis states as int64, 16 GiB at 31
    # modes, so the cap stays well below that
    assert DEFAULT_MODE_CAP <= 31
    n = DEFAULT_MODE_CAP
    hop = {((0, 1), (n - 1, 0)): 1.0, ((n - 1, 1), (0, 0)): 1.0}
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=f"cap of {n}"):
            jordan_wigner(FermionOperator(n + 1, hop))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the cap itself is mapped, bit for bit
    edge = FermionOperator(n, hop)
    pauli = jordan_wigner(edge)
    z = "Z" * (n - 2)
    assert set(pauli.terms) == {"X" + z + "X", "Y" + z + "Y"}
    assert_same_bits(pauli, dict_jordan_wigner(edge))


# ---------------------------------------------------------------------------
# encoding norms
# ---------------------------------------------------------------------------

def test_dimer_one_norms(dimer):
    T, V, D = spin_orbital(dimer)
    alpha = lcu_one_norm(jordan_wigner(build_hamiltonian(T, V)))
    beta = lcu_one_norm(jordan_wigner(build_dipole(D[0])))
    assert alpha == pytest.approx(6.0, abs=1e-12)
    assert beta == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("args", [
    None, (2, 1, 0), (2, 2, 3), (2, 3, 1), (3, 2, 1), (3, 3, 2), (3, 4, 0),
    (4, 2, 1), (4, 4, 2), (4, 6, 3),
], ids=lambda a: "dimer" if a is None else "random-n{}-ne{}-s{}".format(*a))
def test_dipole_norm_hierarchy(args):
    # the sector block of each dipole is bounded by both subnormalizations;
    # neither of those bounds the other (above half filling the eta-norm can
    # exceed the Pauli one-norm)
    model = (make_hubbard_dimer(1.0, 2.0, 0.5) if args is None
             else make_random_model(*args))
    _, _, D = spin_orbital(model)
    states = [b for b in range(2 ** len(D[0]))
              if bin(b).count("1") == model.n_electrons]
    for d in D:
        pauli = jordan_wigner(build_dipole(d))
        norm = np.linalg.norm(pauli.dense(states=states), 2)
        eta = eta_dipole_norm(d, model.n_electrons)
        assert norm <= eta + 1e-9
        assert norm <= lcu_one_norm(pauli) + 1e-9
    if args is None:
        assert eta_dipole_norm(D[0], model.n_electrons) == pytest.approx(1.0)


def test_eta_dipole_norm_oracle_value():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    A = (A + A.T) / 2
    assert eta_dipole_norm(A, 2) == pytest.approx(3.403979933009, abs=1e-10)


def test_eta_dipole_norm_validation():
    with pytest.raises(InputError):
        eta_dipole_norm(np.zeros((2, 3)), 1)
    with pytest.raises(InputError):
        eta_dipole_norm(np.eye(2), 3)
