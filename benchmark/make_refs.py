"""Regenerate refs.json, the committed references of the default seed.

    python3 benchmark/make_refs.py

Every cell comes from refs.py: the eig route for double-precision values,
80-digit mpmath for --digits cells, the closed forms for velocities,
plateaus and leading-edge forms, and eig-route bisection for crossing
times.  None of it calls the program.  Takes about a minute.
"""

from __future__ import annotations

import json
import os

import refs
import workloads

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def main() -> None:
    seed = workloads.DEFAULT_SEED
    data = {}
    for name in workloads.WORKLOADS:
        data[name] = [{"op_id": op.op_id, "argv": op.argv,
                       "cells": refs.cells(op, seed, "exact")}
                      for op in workloads.build(name, seed)]
        print(name, sum(len(o["cells"]) for o in data[name]), "cells")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
