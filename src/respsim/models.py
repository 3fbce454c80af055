"""Model construction and file ingestion.

A model holds spatial-orbital integrals; the spectrum layer builds its
blocks from them on alpha and beta strings, and no spin-orbital tensor is
formed.

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

from .errors import (AXIS_LETTERS, InputError, ResourceError, check_reals,
                     check_seed, is_int)

PRUNE_TOL = 1e-14  # magnitudes at or below it count as zero
# largest spin-orbital (mode) count N = 2n that diagonalize and the
# reference's Jordan-Wigner map take; PauliOperator.dense indexes all 2^N
# basis states, 16 GiB of int64 at 31 modes, so it must stay well below that
DEFAULT_MODE_CAP = 14
RANDOM_MODEL_CAP = DEFAULT_MODE_CAP // 2  # spatial orbitals

# the eight index permutations of the real-orbital two-body symmetry group:
# the identity, p <-> s, q <-> r and both, then each of them followed by the
# pair swap (p, q, r, s) -> (q, p, s, r)
TWO_BODY_IMAGES = ((0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
                   (1, 0, 3, 2), (1, 3, 0, 2), (2, 0, 3, 1), (2, 3, 0, 1))


def validate_one_body_symmetry(m: np.ndarray):
    """Check that a one-body matrix is symmetric to 1e-10."""
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-10:
        raise InputError("one-body matrix is not symmetric to 1e-10")


def validate_two_body_symmetry(V: np.ndarray):
    """Check the eight-fold real-orbital index symmetry of the V tensor to
    1e-10."""
    for perm in TWO_BODY_IMAGES[1:]:
        dev = np.max(np.abs(V - V.transpose(perm)), initial=0.0)
        if dev > 1e-10:
            raise InputError(
                f"two-body tensor violates index symmetry {perm} by {dev:.3e}"
            )


@dataclass
class ModelSpec:
    """Spatial-orbital integrals plus bookkeeping for one molecular model.

    V addresses a_p^dag a_q^dag a_r a_s of spatial orbitals, each term
    summed over the spins of (p, s) and of (q, r); T and the dipoles act
    on each spin alike.  The model is admitted once, here: counts,
    shapes (the shift a scalar), finite real entries (through
    `errors.check_reals`), T and each dipole symmetric and V eight-fold
    symmetric to 1e-10.
    """

    n_orbitals: int            # spatial orbital count n
    n_electrons: int           # eta, 0..2n
    T: np.ndarray              # (n, n)
    V: np.ndarray              # (n, n, n, n)
    dipole: np.ndarray         # (3, n, n)
    nuclear_shift: float = 0.0
    label: str = ""

    def __post_init__(self):
        n = self.n_orbitals
        if not (is_int(n) and is_int(self.n_electrons)):
            raise InputError("orbital and electron counts must be integers")
        for name, shape in {"T": (n, n), "V": (n,) * 4, "dipole": (3, n, n),
                            "nuclear_shift": ()}.items():
            value = check_reals(getattr(self, name), name)
            if value.shape != shape:
                raise InputError(f"{name} shape {value.shape} != {shape}")
            setattr(self, name, value)
        self.nuclear_shift = float(self.nuclear_shift)
        if not 0 <= self.n_electrons <= 2 * n:
            raise InputError(
                f"electron count {self.n_electrons} outside [0, {2 * n}]"
            )
        for m in (self.T, *self.dipole):
            validate_one_body_symmetry(m)
        validate_two_body_symmetry(self.V)


def make_hubbard_dimer(t: float, U: float, d01: float) -> ModelSpec:
    """Two-site model: hopping -t, on-site U, one inter-site dipole axis."""
    T_spat = np.array([[0.0, -t], [-t, 0.0]])
    V_spat = np.zeros((2, 2, 2, 2))
    V_spat[0, 0, 0, 0] = U / 2
    V_spat[1, 1, 1, 1] = U / 2
    d_spat = np.zeros((3, 2, 2))
    d_spat[0, 0, 1] = d_spat[0, 1, 0] = d01
    return ModelSpec(2, 2, T_spat, V_spat, d_spat, 0.0,
                     label=f"hubbard-dimer(t={t},U={U},d={d01})")


def make_random_model(n_orbitals: int, n_electrons: int, seed: int) -> ModelSpec:
    """Deterministic random model with all required index symmetries."""
    if not (is_int(n_orbitals) and n_orbitals >= 1):
        raise InputError("orbital count must be an integer of at least 1")
    if n_orbitals > RANDOM_MODEL_CAP:
        raise ResourceError(
            f"{n_orbitals} spatial orbitals exceeds the cap of {RANDOM_MODEL_CAP}"
        )
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    n = n_orbitals
    T = rng.normal(size=(n, n))
    T = (T + T.T) / 2
    V = rng.normal(size=(n, n, n, n)) * (0.5 / n)
    V = sum(V.transpose(perm) for perm in TWO_BODY_IMAGES) / 8.0
    d = rng.normal(size=(3, n, n))
    d = (d + d.transpose(0, 2, 1)) / 2
    return ModelSpec(n, n_electrons, T, V, d, 0.0,
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


def _fields(records, kinds, usage):
    """The fields of (lineno, text) records as one array per column, of
    that column's kind (a numpy dtype), and the first two checks that
    _refuse_first takes: records with another field count than len(kinds)
    (message `usage`), and records with a field that does not parse (the
    first such field's message).  A refused record reads 0."""
    rows = [text.split() for _, text in records]
    width = len(kinds)
    bad_width = np.array([len(r) != width for r in rows], dtype=bool)
    columns = list(zip(*[r if len(r) == width else ("0",) * width
                         for r in rows])) or [()] * width
    messages = [None] * len(rows)
    out = []
    for column, kind in zip(columns, kinds):
        try:
            out.append(np.array(column, dtype=kind))
        except (ValueError, OverflowError):
            column = list(column)
            for k, field in enumerate(column):
                try:
                    np.array(field, dtype=kind)
                except (ValueError, OverflowError) as exc:
                    messages[k] = messages[k] or str(exc)
                    column[k] = "0"
            out.append(np.array(column, dtype=kind))
    unparsed = np.array([m is not None for m in messages], dtype=bool)
    return out, [(bad_width, usage), (unparsed, messages)]


def _refuse_first(path, records, checks):
    """Raise InputError at the first record, in file order, that a check
    flags, naming its line; at one record the first check's message wins.
    A check is a mask over the records and one message, or one per
    record."""
    flagged = [(int(np.argmax(mask)), c)
               for c, (mask, _) in enumerate(checks) if mask.any()]
    if flagged:
        k, c = min(flagged)
        msg = checks[c][1]
        raise InputError(f"{path}:{records[k][0]}: "
                         f"{msg if isinstance(msg, str) else msg[k]}")


def _fill(array, index, images, values):
    """array[image] = value for every image (an index permutation) of each
    row of index, array being C-contiguous.  Numpy leaves open which of
    several writes to one element lands, so only the last row of each
    orbit (its set of images) is written."""
    flat = np.ravel_multi_index(tuple(index[:, np.array(images)].T),
                                array.shape)
    last = list(dict(zip(flat.min(axis=0).tolist(), range(len(values))))
                .values())
    array.reshape(-1)[flat[:, last]] = values[last]


def load_fcidump_like(path, dipole_path=None) -> ModelSpec:
    """Read spatial integrals plus an optional dipole file into a
    ModelSpec.  Without a dipole file the dipoles are zero and a warning
    says so; a named file must exist.  A header declaring more than
    DEFAULT_MODE_CAP spin orbitals raises ResourceError before any
    integral array is allocated."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"integral file not found: {path}")
    if dipole_path is not None and not Path(dipole_path).is_file():
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
    records = lines[start:]
    (val, *cols), checks = _fields(records, (float, int, int, int, int),
                                   "expected 'value i j k l'")
    idx = np.array(cols).T
    zero = idx == 0
    pair = zero[:, 2] & zero[:, 3]  # one-body shaped, or the shift
    _refuse_first(path, records, checks + [
        (np.any((idx < 0) | (idx > norb), axis=1),
         f"index out of range 1..{norb}"),
        (pair & ~zero.all(axis=1) & zero[:, :2].any(axis=1),
         "bad one-body indices"),
        (~pair & zero.any(axis=1), "mixed zero/nonzero indices"),
    ])
    shifts = val[zero.all(axis=1)]
    shift = float(shifts[-1]) if shifts.size else 0.0
    T = np.zeros((norb, norb))
    V = np.zeros((norb, norb, norb, norb))
    one = pair & ~zero[:, 0]
    _fill(T, idx[one, :2] - 1, [(0, 1), (1, 0)], val[one])
    two = ~zero[:, 0] & ~pair
    _fill(V, idx[two] - 1, TWO_BODY_IMAGES, val[two])
    dip = np.zeros((3, norb, norb))
    if dipole_path is None:
        warnings.warn(
            f"no dipole file for {path.name}; dipole set to zero", stacklevel=2
        )
    else:
        records = _stripped_lines(dipole_path)
        (tags, val, i, j), checks = _fields(records, (object, float, int, int),
                                            "expected 'axis value i j'")
        axis_map = {tag: a for a, c in enumerate(AXIS_LETTERS)
                    for tag in (c, str(a + 1))}
        axes = np.array([axis_map.get(t.lower(), -1) for t in tags], dtype=int)
        checks.insert(1, (axes < 0, [f"unknown axis {t!r}" for t in tags]))
        _refuse_first(dipole_path, records, checks + [
            (~((1 <= i) & (i <= norb) & (1 <= j) & (j <= norb)),
             "index out of range")])
        _fill(dip, np.array([axes, i - 1, j - 1]).T, [(0, 1, 2), (0, 2, 1)],
              val)
    return ModelSpec(norb, nelec, T, V, dip, shift, label=path.stem)

