#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures (deterministic)."""

from __future__ import annotations

import pathlib

import numpy as np

from convalg import (Group, Operator, TorusGrid, construct,
                     fourier_coefficient_operator)
from convalg.jsonio import (dump, kernel_family_to_json, operator_to_json,
                            pair_to_json, SCHEMA_VERSION)
from convalg.torus import KernelFamily, character, extract_kernels
from convalg.twisted import PlaneGrid, gaussian_pair

HERE = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    HERE.mkdir(exist_ok=True)

    dft8 = construct(Group(8), range(8), {e: e for e in range(8)})
    dump(operator_to_json(dft8), HERE / "dft_n8.json")

    dump(operator_to_json(Operator.identity(Group(4))), HERE / "identity_n4.json")

    grid = TorusGrid(64)
    fam = extract_kernels(fourier_coefficient_operator(grid, 8), grid)
    dump(kernel_family_to_json(fam), HERE / "fourier_torus_m64_n8.json")

    # the Nyquist character (a = M/2), its neighbour a = -7 and a zero kernel
    grid = TorusGrid(16)
    rows = np.stack([character(grid, 8), character(grid, -7), np.zeros(16)])
    dump(kernel_family_to_json(KernelFamily(grid, 1, rows)),
         HERE / "nyquist_torus_m16_n1.json")

    g = gaussian_pair(PlaneGrid(4.0, 64))
    dump(pair_to_json(g, g), HERE / "gaussian_pair_s64.json")

    dump({"schema": SCHEMA_VERSION, "n": 6, "support": [0, 3],
          "sigma": [[0, 2], [3, 2]]}, HERE / "conv_params_n6.json")

    dump({"schema": SCHEMA_VERSION, "n": 8, "k0": 3, "m0": 2, "m1": 5,
          "c": [2.0, -1.0]}, HERE / "intertwiner_params_n8.json")

    print(f"fixtures written to {HERE}")


if __name__ == "__main__":
    main()
