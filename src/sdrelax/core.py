"""Dense tensor algebra for deformations with disarrangements.

Matrices are plain numpy arrays of shape (d, n) mapping R^n to R^d; the
ambient dimension n runs from 1 to 3. A rotation frame is a stack of Givens
rotations parametrized by 0, 1, or 3 angles in dimensions 1, 2, 3, and its
columns provide the orthonormal jump directions used to split a
disarrangement tensor into rank-one parts. The closing section implements
the exact relaxed densities of purely interfacial energies built on the
absolute, positive, and negative parts of the normal jump.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonUnitNormalError

ANGLE_COUNT = {1: 0, 2: 1, 3: 3}

UNIT_TOL = 1e-12
ORTHONORMAL_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10

_IDENTITY = {n: np.eye(n) for n in (1, 2, 3)}


def as_matrix(entries, dim=None):
    """Validate a (d, n) matrix: finite entries, n in {1, 2, 3}."""
    m = np.array(entries, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise DimensionMismatchError(f"matrix must be 2-d, got shape {m.shape}")
    if not 1 <= m.shape[1] <= 3:
        raise DimensionMismatchError(f"ambient dimension {m.shape[1]} outside 1..3")
    if dim is not None and m.shape[1] != dim:
        raise DimensionMismatchError(f"expected {dim} columns, got {m.shape[1]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(entries, dim=None):
    v = np.atleast_1d(np.asarray(entries, dtype=float)).reshape(-1)
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_unit_vector(entries, dim=None, tol=UNIT_TOL):
    v = as_vector(entries, dim)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise NonUnitNormalError(f"|v| = {norm!r} deviates from 1 beyond {tol}")
    return v


def disarrangement_tensor(grad_g, G):
    """Difference between the macroscopic gradient and the part done smoothly.

    Both arguments are (d, n); the result measures how much of the gradient
    is carried by microscale slips rather than by smooth stretching.
    """
    A = as_matrix(grad_g)
    B = as_matrix(G, dim=A.shape[1])
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch {A.shape} vs {B.shape}")
    return A - B


@dataclass(frozen=True)
class Frame:
    """Rotation frame: a tuple of Givens angles plus the ambient dimension."""

    angles: tuple
    dim: int

    def __post_init__(self):
        try:
            angles = tuple(map(float, self.angles))
        except (TypeError, ValueError):  # a bare number, nested sequence, text
            angles = tuple(float(a) for a in np.atleast_1d(np.asarray(self.angles, dtype=float))) \
                if np.size(self.angles) else ()
        object.__setattr__(self, "angles", angles)
        if self.dim not in ANGLE_COUNT:
            raise DimensionMismatchError(f"dimension {self.dim} outside 1..3")
        if len(angles) != ANGLE_COUNT[self.dim]:
            raise DimensionMismatchError(
                f"dimension {self.dim} needs {ANGLE_COUNT[self.dim]} angles, got {len(angles)}")
        if not all(math.isfinite(a) for a in angles):
            raise ValueError("angles must be finite")


def identity_frame(dim):
    return Frame((), dim) if dim == 1 else Frame((0.0,) * ANGLE_COUNT[dim], dim)


def frame_matrix(frame):
    """Rotation matrix of a frame; columns are the jump directions.

    In three dimensions R = G01(t1) G02(t2) G12(t3), the product of Givens
    rotations in the (0, 1), (0, 2) and (1, 2) planes, written out in
    closed form.
    """
    if frame.dim == 1:
        return np.array([[1.0]])
    if frame.dim == 2:
        c, s = math.cos(frame.angles[0]), math.sin(frame.angles[0])
        return np.array([[c, -s], [s, c]])
    t1, t2, t3 = frame.angles
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    return np.array([[c1 * c2, -s1 * c3 - c1 * s2 * s3, s1 * s3 - c1 * s2 * c3],
                     [s1 * c2, c1 * c3 - s1 * s2 * s3, -c1 * s3 - s1 * s2 * c3],
                     [s2, c2 * s3, c2 * c3]])


def frame_angles_from_matrix(R):
    """Inverse of frame_matrix for a proper rotation (det +1).

    Used to seed optimizer starts from eigenvector frames; near the gimbal
    singularity of the middle angle the recovery is still a valid frame,
    just not unique.
    """
    R = as_matrix(R)
    n = R.shape[1]
    if R.shape[0] != n:
        raise DimensionMismatchError("rotation matrix must be square")
    if n == 1:
        return Frame((), 1)
    if n == 2:
        return Frame((math.atan2(R[1, 0], R[0, 0]),), 2)
    # R = Rz(t1) . Ry(-t2) . Rx(t3) in aviation terms.
    t2 = math.asin(max(-1.0, min(1.0, R[2, 0])))
    if abs(abs(R[2, 0]) - 1.0) < 1e-12:
        t1 = math.atan2(-R[0, 1], R[1, 1])
        t3 = 0.0
    else:
        t1 = math.atan2(R[1, 0], R[0, 0])
        t3 = math.atan2(R[2, 1], R[2, 2])
    return Frame((t1, t2, t3), 3)


@dataclass(frozen=True)
class RankOneDecomposition:
    """Split of a (d, n) matrix as a sum of rank-one terms over a frame.

    amplitudes[i] is the vector paired with the i-th frame column, so the
    matrix equals sum_i amplitudes[i] (x) directions[:, i].
    """

    amplitudes: np.ndarray  # (n, d)
    directions: np.ndarray  # (n, n), columns orthonormal

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=float)
        dirs = np.array(self.directions, dtype=float)
        gram = dirs.T @ dirs
        if np.max(np.abs(gram - np.eye(dirs.shape[1]))) > ORTHONORMAL_TOL:
            raise NonUnitNormalError("frame columns are not orthonormal within 1e-12")
        amp.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "directions", dirs)

    @property
    def terms(self):
        return [(self.amplitudes[i], self.directions[:, i])
                for i in range(self.directions.shape[1])]

    def reconstruct(self):
        return self.amplitudes.T @ self.directions.T


def _checked_amplitudes(M, frame):
    """Validated M, the frame matrix R and M R, whose column i is M r_i.

    Raises what decompose_by_frame promises: DimensionMismatchError for a
    frame of the wrong dimension, NonUnitNormalError when the columns of R
    are not orthonormal within ORTHONORMAL_TOL, ValueError when (M R) R^T
    misses M by more than RECONSTRUCTION_TOL.
    """
    M = as_matrix(M)
    if M.shape[1] != frame.dim:
        raise DimensionMismatchError(f"matrix has {M.shape[1]} columns, frame dim {frame.dim}")
    R = frame_matrix(frame)
    if np.abs(R.T @ R - _IDENTITY[frame.dim]).max() > ORTHONORMAL_TOL:
        raise NonUnitNormalError("frame columns are not orthonormal within 1e-12")
    MR = M @ R
    err = float(np.abs(MR @ R.T - M).max()) if M.size else 0.0
    if err > RECONSTRUCTION_TOL:
        raise ValueError(f"rank-one reconstruction off by {err:.3e}")
    return M, R, MR


def decompose_by_frame(M, frame):
    """Rank-one split of M over the columns of a frame.

    The i-th amplitude is M applied to the i-th column, which makes the
    reconstruction identity exact for any orthonormal frame.
    """
    _, R, MR = _checked_amplitudes(M, frame)
    return RankOneDecomposition(MR.T, R)


def frame_cost(M, frame, psi):
    """Total interfacial cost of transporting M along one frame.

    psi(jump, normal) is evaluated once per frame column with the rank-one
    amplitude as the jump; this is the n -> infinity limit of the staircase
    family built on that frame. For a square M and a density declaring
    normal_form f the cost is sum_i f(r_i . M r_i), the profile applied to
    the diagonal of R^T M R, with no psi call. Checks and errors are those
    of decompose_by_frame.
    """
    M, R, MR = _checked_amplitudes(M, frame)
    profile = getattr(psi, "normal_form", None)
    if profile is not None and M.shape[0] == frame.dim:
        return float(profile(np.einsum("ji,ji->i", R, MR)).sum())
    return float(sum(psi(a, nu) for a, nu in zip(MR.T, R.T)))


def trace_of_decomposition(dec):
    """Sum of normal components of the amplitudes; equals tr M when square."""
    return float(sum(a @ nu for a, nu in dec.terms))


# ---------------------------------------------------------------------------
# Exact relaxed densities for the three model interfacial energies.

def relaxed_bulk_abs(grad_g, G):
    """Exact relaxed bulk density for the absolute normal jump energy."""
    return abs(float(np.trace(disarrangement_tensor(_square(grad_g), _square(G)))))


def relaxed_bulk_plus(grad_g, G):
    """Exact relaxed bulk density for the positive-part normal jump energy."""
    return max(0.0, float(np.trace(disarrangement_tensor(_square(grad_g), _square(G)))))


def relaxed_bulk_minus(grad_g, G):
    """Exact relaxed bulk density for the negative-part normal jump energy."""
    return max(0.0, -float(np.trace(disarrangement_tensor(_square(grad_g), _square(G)))))


def relaxed_surface_abs(jump, normal):
    """Exact relaxed surface density |jump . normal|."""
    lam = as_vector(jump)
    nu = as_unit_vector(normal, dim=lam.size)
    return abs(float(lam @ nu))


def relaxed_surface_plus(jump, normal):
    lam = as_vector(jump)
    nu = as_unit_vector(normal, dim=lam.size)
    return max(0.0, float(lam @ nu))


def relaxed_surface_minus(jump, normal):
    lam = as_vector(jump)
    nu = as_unit_vector(normal, dim=lam.size)
    return max(0.0, -float(lam @ nu))


def _square(m):
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("trace formulas need a square gradient")
    return m
