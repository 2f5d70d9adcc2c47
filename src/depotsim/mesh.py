"""Graded axisymmetric structured grid and its finite-volume geometry.

Fields live on nodes of a tensor-product (r, z) grid. Each node owns a dual
control volume bounded by the midpoints toward its neighbors; the exact
axisymmetric measure of a dual cell is pi*(rR^2 - rL^2)*(zT - zB). Fluxes are
exchanged across dual faces, which makes every transport operator built here
conservative by construction. The r = 0 axis needs no special casing: the
innermost dual face has zero area.

The dual cells are the package's one integration measure: totals are
`nodal_integral`s and averages divide them by the domain volume. The primal
cells' volumes ``cell_volumes`` are geometry, like the face areas, read by
the cut cells of `metrics.plume_volume` and by `flow.injection_source`.
A `FieldState` is complete when it is built, its derived fields included,
and holds no bound: `orchestrator._admit` alone admits a step's fields, zeroes
their round-off negatives, and computes and judges their derived fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ConfigurationError

__all__ = ["AxiMesh", "FieldState", "build_graded_mesh", "project_field"]

MAX_NEIGHBOR_RATIO = 1.3  # hard cap on adjacent cell-size ratio


class MeshError(ConfigurationError):
    """The mesh settings describe no valid mesh."""


def _graded_side(length: float, n: int, ratio: float) -> np.ndarray:
    """Spacings of n cells over `length`, geometric with the given cell ratio.

    The first cell is the smallest; ratio 1 gives uniform spacing.
    """
    if ratio == 1.0:
        return np.full(n, length / n)
    d0 = length * (ratio - 1.0) / (ratio**n - 1.0)
    return d0 * ratio ** np.arange(n)


def _graded_axis(length: float, n: int, focus: float, ratio: float) -> np.ndarray:
    """Node coordinates on [0, length] with cells growing away from `focus`.

    Cells are split between the two sides of the focus so that the smallest
    spacings on either side match as closely as possible.
    """
    if ratio < 1.0:
        raise MeshError("grading ratio must be >= 1")
    if not 0.0 <= focus <= length:
        raise MeshError("focus must lie inside the domain")
    if ratio == 1.0 or focus <= 0.0 or focus >= length:
        spacings = _graded_side(length, n, ratio)
        if focus > 0.0:  # focus at the far end: grade toward it (uniform stays uniform)
            spacings = spacings[::-1]
    else:
        la, lb = focus, length - focus

        def mismatch(na):  # of the smallest spacings with na cells below the focus
            da = la * (ratio - 1.0) / (ratio**na - 1.0)
            db = lb * (ratio - 1.0) / (ratio**(n - na) - 1.0)
            return abs(np.log(da / db))

        na = min(range(1, n), key=mismatch)
        below = _graded_side(la, na, ratio)[::-1]  # shrink toward the focus
        spacings = np.concatenate([below, _graded_side(lb, n - na, ratio)])
    nodes = np.concatenate([[0.0], np.cumsum(spacings)])
    nodes[-1] = length
    return nodes


@dataclass
class AxiMesh:
    """Axisymmetric structured grid over [0, R] x [0, H].

    Arrays are indexed [j, i] with j the z index (axis 0) and i the r index
    (axis 1), so flattened node k = j*(nr+1) + i.
    """

    r: np.ndarray  # (nr+1,) node radii, r[0] = 0, r[-1] = R
    z: np.ndarray  # (nz+1,) node heights, z[0] = 0, z[-1] = H
    injection_point: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.r[0] != 0.0:
            raise MeshError("radial axis must start at r = 0")
        for name, x in (("r", self.r), ("z", self.z)):
            d = np.diff(x)
            if np.any(d <= 0):
                raise MeshError(f"{name} nodes must be strictly increasing")
            ratios = d[1:] / d[:-1]
            if ratios.size and (ratios.max() > MAX_NEIGHBOR_RATIO + 1e-12
                                or ratios.min() < 1.0 / MAX_NEIGHBOR_RATIO - 1e-12):
                raise MeshError(
                    f"{name} spacing ratio exceeds {MAX_NEIGHBOR_RATIO} between neighbors"
                )
        self._derived = {}
        self._build_geometry()

    def _build_geometry(self):
        r, z = self.r, self.z
        self.nr = r.size - 1
        self.nz = z.size - 1
        self.nr1 = r.size
        self.nz1 = z.size
        self.n_nodes = self.nr1 * self.nz1
        #: dual faces: nz1 * nr between radial neighbours, nz * nr1 between vertical ones
        self.n_faces = self.nz1 * self.nr + self.nz * self.nr1

        # dual-cell boundaries: spacing midpoints, domain edges at the ends
        self.r_dual = np.concatenate([[r[0]], 0.5 * (r[:-1] + r[1:]), [r[-1]]])
        self.z_dual = np.concatenate([[z[0]], 0.5 * (z[:-1] + z[1:]), [z[-1]]])

        ring = np.pi * (self.r_dual[1:] ** 2 - self.r_dual[:-1] ** 2)  # (nr1,)
        dz_dual = self.z_dual[1:] - self.z_dual[:-1]  # (nz1,)
        #: exact axisymmetric volume of each nodal control cell
        self.node_volumes = dz_dual[:, None] * ring[None, :]  # (nz1, nr1)

        self.dr = np.diff(r)  # (nr,) node spacings
        self.dz = np.diff(z)  # (nz,)
        # face between radially adjacent nodes (i, i+1): cylinder strip
        self.area_r = 2.0 * np.pi * self.r_dual[1:-1][None, :] * dz_dual[:, None]  # (nz1, nr)
        # face between vertically adjacent nodes (j, j+1): annulus of the dual cell
        self.area_z = np.broadcast_to(ring[None, :], (self.nz, self.nr1)).copy()

        #: exact axisymmetric volume of each primal cell
        r_c = 0.5 * (r[:-1] + r[1:])
        self.cell_volumes = (2.0 * np.pi * r_c[None, :] * self.dr[None, :]
                             * self.dz[:, None])  # (nz, nr)

        rr, zz = np.meshgrid(r, z)
        self.rr = rr  # (nz1, nr1) node radii
        self.zz = zz  # (nz1, nr1) node heights

    def derived(self, key, build):
        """The dataclass ``build(mesh)``, built on the first call for ``key``, kept
        while the mesh lives and shared by every caller: its arrays are read-only."""
        try:
            return self._derived[key]
        except KeyError:
            pass
        value = self._derived[key] = build(self)
        for arr in vars(value).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return value

    @property
    def radius(self) -> float:
        return float(self.r[-1])

    @property
    def height(self) -> float:
        return float(self.z[-1])

    @property
    def domain_volume(self) -> float:
        return float(np.pi * self.radius**2 * self.height)

    def ball_mask(self, center: tuple[float, float], radius: float) -> np.ndarray:
        """Boolean node mask of the sphere of given radius about (r0, z0)."""
        r0, z0 = center
        return (self.rr - r0) ** 2 + (self.zz - z0) ** 2 <= radius**2

    def distance_to(self, center: tuple[float, float]) -> np.ndarray:
        r0, z0 = center
        return np.hypot(self.rr - r0, self.zz - z0)


def build_graded_mesh(radius: float, height: float, n_r: int, n_z: int,
                      focus: tuple[float, float], grading: float) -> AxiMesh:
    """Tensor-product mesh with geometric grading toward the focus point.

    ``grading`` is the size ratio between adjacent cells (1 = uniform). Ratios
    above 1.3 violate the mesh quality contract and raise.
    """
    if n_r < 8 or n_z < 8:
        raise MeshError("need at least 8 cells per direction")
    if grading < 1.0:
        raise MeshError("grading ratio must be >= 1")
    if grading > MAX_NEIGHBOR_RATIO:
        raise MeshError(f"grading ratio {grading} exceeds {MAX_NEIGHBOR_RATIO}")
    fr, fz = focus
    if not (0.0 <= fr <= radius and 0.0 <= fz <= height):
        raise MeshError("focus must lie inside the domain")
    r = _graded_axis(radius, n_r, fr, grading)
    z = _graded_axis(height, n_z, fz, grading)
    return AxiMesh(r=r, z=z, injection_point=(fr, fz))


def nodal_integral(field: np.ndarray, mesh: AxiMesh) -> float:
    """Integral in the dual (conservation) measure: sum of field x node volume."""
    return float((np.asarray(field) * mesh.node_volumes).sum())


def project_field(src_mesh: AxiMesh, src_field: np.ndarray,
                  dst_mesh: AxiMesh) -> np.ndarray:
    """Bilinear interpolation of a nodal field onto another mesh.

    Both meshes must cover the same domain.
    """
    if (abs(src_mesh.radius - dst_mesh.radius) > 1e-12
            or abs(src_mesh.height - dst_mesh.height) > 1e-12):
        raise MeshError("meshes cover different domains")
    f = np.asarray(src_field, dtype=float)
    if f.shape != (src_mesh.nz1, src_mesh.nr1):
        raise ValueError("field shape does not match source mesh")

    # locate destination nodes inside source cells
    ir = np.clip(np.searchsorted(src_mesh.r, dst_mesh.r, side="right") - 1,
                 0, src_mesh.nr - 1)
    jz = np.clip(np.searchsorted(src_mesh.z, dst_mesh.z, side="right") - 1,
                 0, src_mesh.nz - 1)
    tr = (dst_mesh.r - src_mesh.r[ir]) / src_mesh.dr[ir]
    tz = (dst_mesh.z - src_mesh.z[jz]) / src_mesh.dz[jz]
    tr = np.clip(tr, 0.0, 1.0)[None, :]
    tz = np.clip(tz, 0.0, 1.0)[:, None]

    f00 = f[np.ix_(jz, ir)]
    f01 = f[np.ix_(jz, ir + 1)]
    f10 = f[np.ix_(jz + 1, ir)]
    f11 = f[np.ix_(jz + 1, ir + 1)]
    return ((1 - tz) * ((1 - tr) * f00 + tr * f01)
            + tz * ((1 - tr) * f10 + tr * f11))


@dataclass
class FieldState:
    """All nodal unknowns plus the face-normal Darcy velocity at time t.

    Concentrations are mol/cm^3 of pore fluid; bound drug c_b is mol/cm^3 of
    tissue. The velocity ``u`` has one value per dual face, in the face order
    of `_assembly.CsrPattern` (r faces, then z faces), positive toward growing r or z.
    """

    mesh: AxiMesh
    c_na: np.ndarray
    c_h: np.ndarray
    c_mab: np.ndarray
    c_b: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    t: float
    # derived nodal fields: chloride, pH and drug charge follow from the
    # concentrations (`orchestrator._derived`), j_l is the lymphatic drainage
    c_cl: np.ndarray
    ph: np.ndarray
    z_mab: np.ndarray
    j_l: np.ndarray
