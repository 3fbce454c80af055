"""Model construction, spin lifting, and file round-trips."""

import numpy as np
import pytest

from respsim import (
    InputError,
    ModelSpec,
    ResourceError,
    load_fcidump_like,
    make_hubbard_dimer,
    make_random_model,
    validate_two_body_symmetry,
    write_fcidump_like,
)
from respsim.models import spatial_to_spin, spin_to_spatial


def test_dimer_shapes_and_label():
    m = make_hubbard_dimer(t=1.0, U=2.0, d01=0.5)
    assert m.n_orbitals == 4 and m.n_electrons == 2
    assert m.T.shape == (4, 4)
    assert m.V.shape == (4, 4, 4, 4)
    assert m.dipole.shape == (3, 4, 4)
    assert "hubbard" in m.label
    validate_two_body_symmetry(m.V)


def test_dimer_integral_values():
    m = make_hubbard_dimer(t=1.5, U=3.0, d01=0.25)
    # interleaved spin orbitals: site0 up/dn = modes 0/1, site1 = modes 2/3
    assert m.T[0, 2] == -1.5 and m.T[1, 3] == -1.5
    assert m.T[0, 1] == 0.0
    assert m.V[0, 1, 1, 0] == 1.5          # U/2 on site 0, opposite spins
    assert m.dipole[0, 0, 2] == 0.25
    assert np.all(m.dipole[1] == 0.0) and np.all(m.dipole[2] == 0.0)


def test_spatial_to_spin_round_trip():
    rng = np.random.default_rng(2)
    n = 3
    T = rng.normal(size=(n, n))
    T = (T + T.T) / 2
    V = np.zeros((n, n, n, n))
    d = rng.normal(size=(3, n, n))
    d = (d + d.transpose(0, 2, 1)) / 2
    Ts, Vs, ds = spatial_to_spin(T, V, d)
    model = ModelSpec(2 * n, 2, Ts, Vs, ds)
    T2, V2, d2 = spin_to_spatial(model)
    assert np.allclose(T2, T) and np.allclose(V2, V) and np.allclose(d2, d)


def test_spin_to_spatial_rejects_non_lifted():
    m = make_hubbard_dimer(1.0, 2.0, 0.5)
    m.T[0, 1] = 0.3          # spin-flip hopping cannot come from a lift
    m.T[1, 0] = 0.3
    with pytest.raises(InputError):
        spin_to_spatial(m)


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


@pytest.mark.parametrize("field", ["T", "V", "dipole", "nuclear_shift"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_modelspec_rejects_non_finite(field, bad):
    n = 2
    spec = dict(n_orbitals=n, n_electrons=1, T=np.zeros((n, n)),
                V=np.zeros((n, n, n, n)), dipole=np.zeros((3, n, n)))
    if field == "nuclear_shift":
        spec[field] = bad
    else:
        spec[field].flat[-1] = bad
    with pytest.raises(InputError, match=f"{field} has non-finite"):
        ModelSpec(**spec)


def test_file_round_trip(tmp_path):
    m = make_random_model(2, 2, seed=9)
    path = tmp_path / "ints.txt"
    dpath = tmp_path / "dip.txt"
    write_fcidump_like(m, path, dipole_path=dpath)
    back = load_fcidump_like(path, dipole_path=dpath)
    assert back.n_orbitals == m.n_orbitals
    assert back.n_electrons == m.n_electrons
    assert np.allclose(back.T, m.T, atol=1e-12)
    assert np.allclose(back.V, m.V, atol=1e-12)
    assert np.allclose(back.dipole, m.dipole, atol=1e-12)
    assert not back.dipole_missing


def test_load_without_dipole_warns_and_flags(tmp_path):
    m = make_hubbard_dimer(1.0, 2.0, 0.5)
    path = tmp_path / "ints.txt"
    write_fcidump_like(m, path)
    with pytest.warns(UserWarning):
        back = load_fcidump_like(path)
    assert back.dipole_missing
    assert np.all(back.dipole == 0.0)


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
