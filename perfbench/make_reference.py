"""Write ``reference.json``: clean boundary traces the output checks compare to.

For each acquisition step the workloads use, synthesize the noiseless
production-default data (letter A) and keep, per face, 48 evenly spaced
trace values plus the sum of all absolute values, at 17 digits.  Rerun
only when a change to the physics or discretization is intended, and
say so where the change is described:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import json

import numpy as np

from rtetomo.config import RunConfig, geometry_of
from rtetomo.forward import KernelModel, SourceModel, solve_forward
from rtetomo.boundary import extract_boundary
from rtetomo.geometry import GridSet
from rtetomo.phantom import make_phantom

from workloads import REFERENCE, REFERENCE_RTOL, SIZES

POINTS = 48


def traces(h):
    cfg = RunConfig(h_forward=h, h_inverse=h)
    grid = GridSet.uniform(geometry_of(cfg), h)
    phantom = make_phantom(cfg.letter, cfg.c_a, grid, cfg.mu_s)
    source = SourceModel.build(cfg.sigma)
    kernel = KernelModel(anisotropy=cfg.anisotropy, aperture_half_width=cfg.source_half_width)
    return extract_boundary(solve_forward(phantom, source, kernel, grid))


def main():
    steps = sorted({size["h_forward"] for sizes in SIZES.values() for size in sizes.values()})
    out = {"rtol": REFERENCE_RTOL, "h_forward": {}}
    for h in steps:
        faces = {}
        for face, g in traces(h).items():
            flat = g.ravel()
            index = np.unique(np.linspace(0, flat.size - 1, POINTS).round().astype(int))
            faces[face] = {
                "index": index.tolist(),
                "g": [float(v) for v in flat[index]],
                "abs_sum": float(np.abs(flat).sum()),
            }
        out["h_forward"][repr(float(h))] = faces
        print(f"h_forward={h}: {sum(len(f['index']) for f in faces.values())} values")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
