"""Model construction and file ingestion.

Spin-orbital ordering is interleaved: (alpha_0, beta_0, alpha_1, beta_1, ...),
so spatial orbital p with spin sigma in {0, 1} is spin-orbital 2p + sigma.

File format (integral file):

    # comment lines allowed anywhere
    &FCI NORB=2 NELEC=2
    &END
    -1.0    1 2 0 0      # one-body entry T[0,1] (1-based spatial indices)
     1.0    1 1 1 1      # two-body entry V[0,0,0,0]
     0.25   0 0 0 0      # scalar energy shift

Two-body records address the V tensor exactly as it enters the Hamiltonian
(a_p^dag a_q^dag a_r a_s ordering); all eight symmetry images of each stored
entry are filled in.  The dipole file is a sibling with records

    x  0.5   1 2

(axis tag, value, 1-based spatial indices; axes x/y/z or 1/2/3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, ResourceError, check_seed
from .operators import DEFAULT_MODE_CAP, TWO_BODY_IMAGES

RANDOM_MODEL_CAP = DEFAULT_MODE_CAP // 2  # spatial orbitals
# the Cartesian dipole axes 0, 1, 2 by letter
AXIS_LETTERS = "xyz"


@dataclass
class ModelSpec:
    """Spin-orbital integrals plus bookkeeping for one molecular model."""

    n_orbitals: int            # spin-orbital count N
    n_electrons: int
    T: np.ndarray              # (N, N)
    V: np.ndarray              # (N, N, N, N)
    dipole: np.ndarray         # (3, N, N)
    nuclear_shift: float = 0.0
    label: str = ""
    dipole_missing: bool = False

    def __post_init__(self):
        n = self.n_orbitals
        self.T = np.asarray(self.T, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        self.dipole = np.asarray(self.dipole, dtype=float)
        if self.T.shape != (n, n):
            raise InputError(f"T shape {self.T.shape} != ({n}, {n})")
        if self.V.shape != (n, n, n, n):
            raise InputError(f"V shape {self.V.shape} inconsistent with N={n}")
        if self.dipole.shape != (3, n, n):
            raise InputError(f"dipole shape {self.dipole.shape} != (3, {n}, {n})")
        _require_finite(T=self.T, V=self.V, dipole=self.dipole,
                        nuclear_shift=self.nuclear_shift)
        if not 0 <= self.n_electrons <= n:
            raise InputError(
                f"electron count {self.n_electrons} outside [0, {n}]"
            )


def _require_finite(**values):
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise InputError(f"{name} has non-finite entries")


def spatial_to_spin(T_spat, V_spat, dipole_spat):
    """Lift spatial-orbital integrals to interleaved spin-orbitals.

    T and the dipoles are replicated per spin; V acquires spin-conservation
    deltas on the (p, s) and (q, r) index pairs.
    """
    T_spat = np.asarray(T_spat, dtype=float)
    V_spat = np.asarray(V_spat, dtype=float)
    dipole_spat = np.asarray(dipole_spat, dtype=float)
    # before np.kron turns an inf into a warning about inf * 0
    _require_finite(T=T_spat, V=V_spat, dipole=dipole_spat)
    n = T_spat.shape[0]
    eye2 = np.eye(2)
    T = np.kron(T_spat, eye2)
    d = np.stack([np.kron(dipole_spat[i], eye2) for i in range(3)])
    V = np.zeros((2 * n,) * 4)
    for sigma in (0, 1):
        for tau in (0, 1):
            V[sigma::2, tau::2, tau::2, sigma::2] = V_spat
    return T, V, d


def make_hubbard_dimer(t: float, U: float, d01: float) -> ModelSpec:
    """Two-site model: hopping -t, on-site U, one inter-site dipole axis."""
    T_spat = np.array([[0.0, -t], [-t, 0.0]])
    V_spat = np.zeros((2, 2, 2, 2))
    V_spat[0, 0, 0, 0] = U / 2
    V_spat[1, 1, 1, 1] = U / 2
    d_spat = np.zeros((3, 2, 2))
    d_spat[0, 0, 1] = d_spat[0, 1, 0] = d01
    T, V, d = spatial_to_spin(T_spat, V_spat, d_spat)
    return ModelSpec(4, 2, T, V, d, 0.0, label=f"hubbard-dimer(t={t},U={U},d={d01})")


def make_random_model(n_orbitals: int, n_electrons: int, seed: int) -> ModelSpec:
    """Deterministic random model with all required index symmetries."""
    if n_orbitals > RANDOM_MODEL_CAP:
        raise ResourceError(
            f"{n_orbitals} spatial orbitals exceeds the cap of {RANDOM_MODEL_CAP}"
        )
    if not 0 <= n_electrons <= 2 * n_orbitals:
        raise InputError("electron count outside [0, 2*NORB]")
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    n = n_orbitals
    T = rng.normal(size=(n, n))
    T = (T + T.T) / 2
    V = rng.normal(size=(n, n, n, n)) * (0.5 / n)
    V = sum(V.transpose(perm) for perm in TWO_BODY_IMAGES) / 8.0
    d = rng.normal(size=(3, n, n))
    d = (d + d.transpose(0, 2, 1)) / 2
    Ts, Vs, ds = spatial_to_spin(T, V, d)
    return ModelSpec(2 * n, n_electrons, Ts, Vs, ds, 0.0,
                     label=f"random(n={n},seed={seed})")


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _parse_header(lines):
    """Extract NORB/NELEC from '&...' header lines; return (norb, nelec,
    index of first record line)."""
    fields = {}
    i = 0
    for i, (lineno, text) in enumerate(lines):
        if not text.startswith("&"):
            break
        body = text.lstrip("&").replace(",", " ")
        if body.strip().upper() == "END":
            i += 1
            break
        for chunk in body.split():
            if "=" in chunk:
                key, _, val = chunk.partition("=")
                fields[key.strip().upper()] = val.strip()
    else:
        i += 1
    if "NORB" not in fields or "NELEC" not in fields:
        raise InputError("header must declare NORB and NELEC")
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except ValueError as exc:
        raise InputError(f"bad header value: {exc}") from exc
    return norb, nelec, i


def _stripped_lines(path):
    out = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            out.append((lineno, text))
    return out


def load_fcidump_like(path, dipole_path=None) -> ModelSpec:
    """Read spatial integrals plus an optional dipole file; return the
    spin-lifted ModelSpec.  Without a dipole file the dipoles are zero and
    the model is flagged dipole_missing; a named file must exist.  A header
    declaring more than DEFAULT_MODE_CAP spin orbitals raises ResourceError
    before any integral array is allocated."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"integral file not found: {path}")
    if dipole_path is not None and not Path(dipole_path).exists():
        raise InputError(f"dipole file not found: {dipole_path}")
    lines = _stripped_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    norb, nelec, start = _parse_header(lines)
    if norb <= 0:
        raise InputError("NORB must be positive")
    if 2 * norb > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"NORB={norb} gives {2 * norb} spin orbitals, beyond the cap of "
            f"{DEFAULT_MODE_CAP} modes")
    if nelec < 0 or nelec > 2 * norb:
        raise InputError(f"NELEC={nelec} exceeds 2*NORB={2 * norb}")
    T = np.zeros((norb, norb))
    V = np.zeros((norb, norb, norb, norb))
    shift = 0.0
    for lineno, text in lines[start:]:
        parts = text.split()
        if len(parts) != 5:
            raise InputError(f"{path}:{lineno}: expected 'value i j k l'")
        try:
            val = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        idx = (i, j, k, l)
        if any(x < 0 or x > norb for x in idx):
            raise InputError(f"{path}:{lineno}: index out of range 1..{norb}")
        if idx == (0, 0, 0, 0):
            shift = val
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise InputError(f"{path}:{lineno}: bad one-body indices")
            T[i - 1, j - 1] = val
            T[j - 1, i - 1] = val
        elif 0 in idx:
            raise InputError(f"{path}:{lineno}: mixed zero/nonzero indices")
        else:
            entry = (i - 1, j - 1, k - 1, l - 1)
            for perm in TWO_BODY_IMAGES:
                V[tuple(entry[a] for a in perm)] = val
    dip = np.zeros((3, norb, norb))
    missing = dipole_path is None
    if missing:
        warnings.warn(
            f"no dipole file for {path.name}; dipole set to zero", stacklevel=2
        )
    else:
        axis_map = {tag: i for i, c in enumerate(AXIS_LETTERS)
                    for tag in (c, str(i + 1))}
        for lineno, text in _stripped_lines(dipole_path):
            parts = text.split()
            if len(parts) != 4:
                raise InputError(f"{dipole_path}:{lineno}: expected 'axis value i j'")
            ax = axis_map.get(parts[0].lower())
            if ax is None:
                raise InputError(f"{dipole_path}:{lineno}: unknown axis {parts[0]!r}")
            try:
                val = float(parts[1])
                i, j = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise InputError(f"{dipole_path}:{lineno}: {exc}") from exc
            if not (1 <= i <= norb and 1 <= j <= norb):
                raise InputError(f"{dipole_path}:{lineno}: index out of range")
            dip[ax, i - 1, j - 1] = val
            dip[ax, j - 1, i - 1] = val
    T_s, V_s, d_s = spatial_to_spin(T, V, dip)
    return ModelSpec(2 * norb, nelec, T_s, V_s, d_s, shift,
                     label=path.stem, dipole_missing=missing)

