"""Reader of the legacy-VTK snapshots `depotsim.io.write_snapshot` writes.

The package only writes snapshots; the tests read them back to check the
format and that every value survives the text round trip.
"""

from pathlib import Path

import numpy as np

from depotsim.mesh import AxiMesh
from depotsim.params import ConfigurationError


def read_snapshot(path) -> tuple[AxiMesh, dict[str, np.ndarray], float]:
    """Parse a snapshot back into (mesh, fields, time)."""
    path = Path(path)
    tokens = path.read_text().splitlines()
    if not tokens or not tokens[0].startswith("# vtk DataFile"):
        raise ConfigurationError(f"{path}: not a VTK snapshot")
    t = 0.0
    if "t=" in tokens[1]:
        t = float(tokens[1].split("t=")[1].split()[0])
    k = tokens.index("DATASET STRUCTURED_GRID")
    nr1, nz1, _ = (int(v) for v in tokens[k + 1].split()[1:])
    n_points = int(tokens[k + 2].split()[1])
    pts = np.array([[float(c) for c in tokens[k + 3 + m].split()]
                    for m in range(n_points)])
    r = pts[:nr1, 0]
    z = pts[::nr1, 1]
    mesh = AxiMesh(r=r, z=z)

    fields: dict[str, np.ndarray] = {}
    m = k + 3 + n_points
    assert tokens[m].startswith("POINT_DATA")
    m += 1
    while m < len(tokens):
        if not tokens[m].strip():
            m += 1
            continue
        name = tokens[m].split()[1]
        m += 2  # skip LOOKUP_TABLE
        vals = np.array([float(tokens[m + q]) for q in range(n_points)])
        fields[name] = vals.reshape(nz1, nr1)
        m += n_points
    return mesh, fields, t
