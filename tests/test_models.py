"""Model construction and admission, the test-side spin-orbital lift, and
file round-trips."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import spin_orbital
from oracle_reference import write_fcidump_like
from respsim import (
    InputError,
    ModelSpec,
    ResourceError,
    diagonalize,
    load_fcidump_like,
    make_hubbard_dimer,
    make_random_model,
    validate_two_body_symmetry,
)
from respsim.models import TWO_BODY_IMAGES


def test_dimer_shapes_and_label():
    m = make_hubbard_dimer(t=1.0, U=2.0, d01=0.5)
    assert m.n_orbitals == 2 and m.n_electrons == 2
    assert m.T.shape == (2, 2)
    assert m.V.shape == (2, 2, 2, 2)
    assert m.dipole.shape == (3, 2, 2)
    assert "hubbard" in m.label
    validate_two_body_symmetry(m.V)


def test_dimer_integral_values():
    T, V, d = spin_orbital(make_hubbard_dimer(t=1.5, U=3.0, d01=0.25))
    # interleaved spin orbitals: site0 up/dn = modes 0/1, site1 = modes 2/3
    assert T[0, 2] == -1.5 and T[1, 3] == -1.5
    assert T[0, 1] == 0.0
    assert V[0, 1, 1, 0] == 1.5          # U/2 on site 0, opposite spins
    assert d[0, 0, 2] == 0.25
    assert np.all(d[1] == 0.0) and np.all(d[2] == 0.0)


@st.composite
def spatial_models(draw):
    """A ModelSpec on 1..4 spatial orbitals with arbitrary finite entries,
    symmetrized as ModelSpec admits them (T and d over their transposes,
    V over its eight images)."""
    n = draw(st.integers(1, 4))
    values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    T, V, d = (draw(arrays(float, shape, elements=values))
               for shape in ((n, n), (n,) * 4, (3, n, n)))
    V = sum(V.transpose(perm) for perm in TWO_BODY_IMAGES) / 8.0
    return ModelSpec(n, 0, T + T.T, V, d + d.transpose(0, 2, 1))


@settings(max_examples=40, deadline=None)
@given(model=spatial_models())
def test_spin_orbital_lift_is_the_element_map(model):
    # the test-side lift that the references build on: mode 2p + sigma is
    # spatial orbital p with spin sigma: one-body terms keep the spin
    # (T[p, q] times the spin delta, so a negative entry leaves -0.0 off
    # the spin blocks, as np.kron does), and V[p, q, r, s] moves spin
    # sigma from s to p and tau from r to q
    n, N = model.n_orbitals, 2 * model.n_orbitals
    T = np.zeros((N, N))
    d = np.zeros((3, N, N))
    V = np.zeros((N,) * 4)
    for p, q, sigma, tau in itertools.product(range(n), range(n), (0, 1),
                                              (0, 1)):
        delta = float(sigma == tau)
        T[2 * p + sigma, 2 * q + tau] = model.T[p, q] * delta
        for ax in range(3):
            d[ax, 2 * p + sigma, 2 * q + tau] = model.dipole[ax, p, q] * delta
    for p, q, r, s in itertools.product(range(n), repeat=4):
        for sigma, tau in itertools.product((0, 1), repeat=2):
            V[2 * p + sigma, 2 * q + tau, 2 * r + tau, 2 * s + sigma] = \
                model.V[p, q, r, s]
    for got, want in zip(spin_orbital(model), (T, V, d)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _loaded_random_model(tmp_path):
    ints, dip = tmp_path / "ints.txt", tmp_path / "dip.txt"
    write_fcidump_like(make_random_model(3, 2, seed=1), ints, dipole_path=dip)
    return load_fcidump_like(ints, dipole_path=dip)


@pytest.mark.parametrize("build, n", [
    (lambda _: make_hubbard_dimer(1.0, 2.0, 0.5), 2),
    (lambda _: make_random_model(4, 2, seed=0), 4),
    (_loaded_random_model, 3),
], ids=["dimer", "random", "loaded"])
def test_builders_hold_spatial_integrals(tmp_path, build, n):
    m = build(tmp_path)
    assert m.n_orbitals == n
    assert m.T.shape == (n, n)
    assert m.V.shape == (n,) * 4
    assert m.dipole.shape == (3, n, n)
    assert diagonalize(m).n_modes == 2 * n


def test_random_model_is_deterministic_and_symmetric():
    a = make_random_model(3, 2, seed=4)
    b = make_random_model(3, 2, seed=4)
    assert np.array_equal(a.T, b.T)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.dipole, b.dipole)
    validate_two_body_symmetry(a.V)
    assert np.allclose(a.T, a.T.T)
    c = make_random_model(3, 2, seed=5)
    assert not np.array_equal(a.T, c.T)


def test_random_model_cap():
    with pytest.raises(ResourceError):
        make_random_model(8, 2, seed=0)
    with pytest.raises(InputError):
        make_random_model(3, 7, seed=0)


def test_modelspec_validation():
    n = 2
    good = dict(n_orbitals=n, n_electrons=1, T=np.zeros((n, n)),
                V=np.zeros((n, n, n, n)), dipole=np.zeros((3, n, n)))
    ModelSpec(**good)
    with pytest.raises(InputError):
        ModelSpec(**{**good, "T": np.zeros((n, n + 1))})
    with pytest.raises(InputError):
        ModelSpec(**{**good, "V": np.zeros((n, n, n, n + 1))})
    with pytest.raises(InputError):
        ModelSpec(**{**good, "dipole": np.zeros((2, n, n))})
    with pytest.raises(InputError):
        ModelSpec(**{**good, "n_electrons": 5})
    with pytest.raises(InputError, match="nuclear_shift shape"):
        ModelSpec(**{**good, "nuclear_shift": [1.0, 2.0]})


@pytest.mark.parametrize("part", ["T", "V", "dipole"])
def test_modelspec_refuses_an_asymmetric_tensor(dimer, part):
    # the one symmetry admission, on the spatial tensors, to 1e-10
    entry = (0,) * (getattr(dimer, part).ndim - 2) + (0, 1)
    for dev, admitted in ((1e-9, False), (5e-11, True)):
        tensor = getattr(dimer, part).copy()
        tensor[entry] += dev
        parts = {"T": dimer.T, "V": dimer.V, "dipole": dimer.dipole,
                 part: tensor}
        if admitted:
            ModelSpec(dimer.n_orbitals, dimer.n_electrons, **parts)
            continue
        with pytest.raises(InputError, match="symmetr"):
            ModelSpec(dimer.n_orbitals, dimer.n_electrons, **parts)


@pytest.mark.parametrize("field", ["T", "V", "dipole", "nuclear_shift"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1.0", True,
                                 np.bool_(False), 1j, np.complex128(1.0)],
                         ids=repr)
def test_modelspec_rejects_non_finite(field, bad):
    # every number enters through errors.check_reals: a string, a bool or
    # a complex entry is refused, not converted (the last entry of each
    # tensor lies on its diagonal, so no symmetry check sees it first)
    n, kind = 2, float if isinstance(bad, float) else object
    spec = dict(n_orbitals=n, n_electrons=1, T=np.zeros((n, n), kind),
                V=np.zeros((n, n, n, n), kind),
                dipole=np.zeros((3, n, n), kind))
    if field == "nuclear_shift":
        spec[field] = bad
    else:
        spec[field].flat[-1] = bad
    with pytest.raises(InputError,
                       match=f"^{field} must be finite real numbers$"):
        ModelSpec(**spec)


def test_modelspec_holds_float_arrays_and_a_float_shift():
    m = ModelSpec(1, 1, [[0]], [[[[1]]]], [[[0]]] * 3, nuclear_shift=2)
    assert [t.dtype for t in (m.T, m.V, m.dipole)] == [np.float64] * 3
    assert type(m.nuclear_shift) is float and m.nuclear_shift == 2.0


def test_file_round_trip(tmp_path):
    m = make_random_model(2, 2, seed=9)
    path = tmp_path / "ints.txt"
    dpath = tmp_path / "dip.txt"
    write_fcidump_like(m, path, dipole_path=dpath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # a dipole file: no warning
        back = load_fcidump_like(path, dipole_path=dpath)
    assert back.n_orbitals == m.n_orbitals
    assert back.n_electrons == m.n_electrons
    assert np.allclose(back.T, m.T, atol=1e-12)
    assert np.allclose(back.V, m.V, atol=1e-12)
    assert np.allclose(back.dipole, m.dipole, atol=1e-12)
    assert np.any(back.dipole != 0.0)


def test_load_without_dipole_warns_and_flags(tmp_path):
    m = make_hubbard_dimer(1.0, 2.0, 0.5)
    path = tmp_path / "ints.txt"
    write_fcidump_like(m, path)
    with pytest.warns(UserWarning, match="no dipole file for ints.txt; "
                      "dipole set to zero"):
        back = load_fcidump_like(path)
    assert np.all(back.dipole == 0.0)
    assert not hasattr(back, "dipole_missing")


def test_load_errors(tmp_path):
    with pytest.raises(InputError):
        load_fcidump_like(tmp_path / "missing.txt")
    ints = tmp_path / "ints.txt"
    write_fcidump_like(make_hubbard_dimer(1.0, 2.0, 0.5), ints)
    with pytest.raises(InputError):       # named dipole file absent
        load_fcidump_like(ints, dipole_path=tmp_path / "missing-dip.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("&FCI NORB=2\n&END\n1.0 1 1 0 0\n")
    with pytest.raises(InputError):       # no NELEC
        load_fcidump_like(bad)
    bad.write_text("&FCI NORB=2 NELEC=2\n&END\n1.0 1 1 0\n")
    with pytest.raises(InputError):       # short record
        load_fcidump_like(bad)
    bad.write_text("&FCI NORB=2 NELEC=2\n&END\n1.0 3 1 0 0\n")
    with pytest.raises(InputError):       # index out of range
        load_fcidump_like(bad)
    bad.write_text("&FCI NORB=2 NELEC=2\n&END\n1.0 1 0 1 0\n")
    with pytest.raises(InputError):       # mixed zero/nonzero indices
        load_fcidump_like(bad)
    bad.write_bytes(b"\xff")
    with pytest.raises(InputError, match="bad.txt"):     # not UTF-8
        load_fcidump_like(bad)
    with pytest.raises(InputError, match="bad.txt"):     # dipole not UTF-8
        load_fcidump_like(ints, dipole_path=bad)


@pytest.mark.parametrize("records, line, message", [
    ("1.0 1 1 0\n", 3, "expected 'value i j k l'"),
    ("1.0 1 1 x 0\n", 3, "invalid literal for int() with base 10: 'x'"),
    ("one 1 1 0 0\n", 3, "could not convert string to float: 'one'"),
    ("1.0 3 1 0 0\n", 3, "index out of range 1..2"),
    ("1.0 0 1 0 0\n", 3, "bad one-body indices"),
    ("1.0 1 0 1 0\n", 3, "mixed zero/nonzero indices"),
    # the first bad record in file order, whatever its kind
    ("# note\n0.5 1 1 0 0\n1.0 3 1 0 0\n1.0 1 1\n", 5,
     "index out of range 1..2"),
    ("1.0 1 x 0 0\n1.0 3 1 0 0\n", 3,
     "invalid literal for int() with base 10: 'x'"),
    ("1.0 1 1 0 0\n1.0 1 2 0\n2.0 1 2 1 0\n", 4,
     "expected 'value i j k l'"),
    # at one record, the first failing check's message
    ("bad 5 1 0\n", 3, "expected 'value i j k l'"),
    ("bad 5 1 0 0\n", 3, "could not convert string to float: 'bad'"),
], ids=lambda v: repr(v) if isinstance(v, str) else None)
def test_integral_refusals_name_the_first_bad_line(tmp_path, records, line,
                                                   message):
    src = tmp_path / "ints.txt"
    src.write_text("&FCI NORB=2 NELEC=2\n&END\n" + records)
    with pytest.raises(InputError) as err:
        load_fcidump_like(src)
    assert str(err.value) == f"{src}:{line}: {message}"


@pytest.mark.parametrize("records, line, message", [
    ("x 0.5 1\n", 1, "expected 'axis value i j'"),
    ("w 0.5 1 2\n", 1, "unknown axis 'w'"),
    ("x half 1 2\n", 1, "could not convert string to float: 'half'"),
    ("y 0.5 1 3\n", 1, "index out of range"),
    ("z 0.5 1 2\n4 0.5 1 2\nx 0.5 0 1\n", 2, "unknown axis '4'"),
    ("w half 1 2\n", 1, "unknown axis 'w'"),
    ("x 0.5 1 9\nx bad 1 1\n", 1, "index out of range"),
], ids=lambda v: repr(v) if isinstance(v, str) else None)
def test_dipole_refusals_name_the_first_bad_line(tmp_path, records, line,
                                                 message):
    src, dip = tmp_path / "ints.txt", tmp_path / "dip.txt"
    src.write_text("&FCI NORB=2 NELEC=2\n&END\n1.0 1 1 0 0\n")
    dip.write_text(records)
    with pytest.raises(InputError) as err:
        load_fcidump_like(src, dipole_path=dip)
    assert str(err.value) == f"{dip}:{line}: {message}"


def _record_by_record(text, dipole_text, norb):
    """(T, V, dipole, shift) of valid files, one record at a time in file
    order, each record writing all its images: the loader's reference."""
    T, V = np.zeros((norb, norb)), np.zeros((norb,) * 4)
    dip, shift = np.zeros((3, norb, norb)), 0.0
    for line in text.splitlines()[2:]:
        val, *idx = line.split()
        i, j, k, l = (int(x) - 1 for x in idx)
        if (i, j, k, l) == (-1,) * 4:
            shift = float(val)
        elif (k, l) == (-1, -1):
            T[i, j] = T[j, i] = float(val)
        else:
            for perm in TWO_BODY_IMAGES:
                V[tuple((i, j, k, l)[a] for a in perm)] = float(val)
    for line in dipole_text.splitlines():
        tag, val, i, j = line.split()
        ax = "xyz123".index(tag) % 3
        dip[ax, int(i) - 1, int(j) - 1] = dip[ax, int(j) - 1, int(i) - 1] = \
            float(val)
    return T, V, dip, shift


@settings(max_examples=40, deadline=None)
@given(data=st.data(), norb=st.integers(1, 3))
def test_loaded_arrays_are_the_record_by_record_arrays(tmp_path_factory, data,
                                                       norb):
    # repeated orbits and repeated shifts included: the later record wins,
    # bit for bit as a record-by-record fill gives it
    index = st.integers(1, norb)
    value = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: f"{v:.17g}")
    record = st.one_of(
        st.tuples(value, index, index, index, index),
        st.tuples(value, index, index, st.just(0), st.just(0)),
        st.tuples(value, *[st.just(0)] * 4))
    records = data.draw(st.lists(record, max_size=30), label="records")
    dipoles = data.draw(st.lists(st.tuples(st.sampled_from("xyz123"), value,
                                           index, index), max_size=12),
                        label="dipoles")
    text = f"&FCI NORB={norb} NELEC=1\n&END\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in records)
    dipole_text = "".join(" ".join(map(str, r)) + "\n" for r in dipoles)
    path = tmp_path_factory.mktemp("load")
    (path / "ints.txt").write_text(text)
    (path / "dip.txt").write_text(dipole_text)
    m = load_fcidump_like(path / "ints.txt", dipole_path=path / "dip.txt")
    T, V, dip, shift = _record_by_record(text, dipole_text, norb)
    for got, want in ((m.T, T), (m.V, V), (m.dipole, dip)):
        assert got.tobytes() == want.tobytes()
    assert m.nuclear_shift == shift


def test_repeated_orbit_records_load_the_later_value(tmp_path):
    # (2, 1, 4, 3) is the pair-swap image of (1, 2, 3, 4): the later record
    # rewrites the whole eight-image orbit, so V keeps the eight-fold
    # symmetry exactly and the loader need not check it
    src = tmp_path / "ints.txt"
    src.write_text("&FCI NORB=4 NELEC=2\n&END\n"
                   "-1.0 1 2 0 0\n"
                   "0.25 1 1 2 2\n"
                   "0.3 1 2 3 4\n"
                   "0.7 2 1 4 3\n")
    with pytest.warns(UserWarning):
        m = load_fcidump_like(src)
    entry = (0, 1, 2, 3)
    images = {tuple(entry[a] for a in perm) for perm in TWO_BODY_IMAGES}
    assert len(images) == 8
    assert all(m.V[idx] == 0.7 for idx in images)
    _, V, _ = spin_orbital(m)
    for perm in TWO_BODY_IMAGES:
        assert np.array_equal(V, V.transpose(perm))


def test_nuclear_shift_round_trip(tmp_path):
    src = tmp_path / "ints.txt"
    src.write_text("&FCI NORB=2 NELEC=2\n&END\n"
                   "0.5 1 2 0 0\n"
                   "1.25 0 0 0 0\n")
    with pytest.warns(UserWarning):
        m = load_fcidump_like(src)
    assert m.nuclear_shift == 1.25
    out = tmp_path / "back.txt"
    write_fcidump_like(m, out)
    with pytest.warns(UserWarning):
        again = load_fcidump_like(out)
    assert again.nuclear_shift == 1.25
    assert np.allclose(again.T, m.T)
