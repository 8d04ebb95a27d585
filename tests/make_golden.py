"""Regenerate the golden default codebook and the host key it was built on.

    PYTHONPATH=src python tests/make_golden.py

It builds the default 1634-cell codebook of ``RunConfig()``, the configuration that
``tests/test_golden.py`` compares against, and writes it to ``tests/golden/default_codebook.json``
in the program's own format. Next to it, ``tests/golden/host.json`` records the host key:
numpy's dispatch level for ``sin``, ``cos`` and ``log1p`` and the OpenBLAS core, which
decide the codebook's last bits. Run it when a change moves the codebook on purpose, and
keep a ledger of what moved in ``CHANGES.md``. It takes about 7 s on one core of a 2.1 GHz
Xeon. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

GOLDEN = Path(__file__).resolve().parent / "golden"
CODEBOOK = GOLDEN / "default_codebook.json"
HOST = GOLDEN / "host.json"


def host_key() -> dict[str, str]:
    """numpy's dispatch level for sin, cos and log1p, and the OpenBLAS core numpy calls."""
    dispatch = opt_func_info(func_name="^(sin|cos|log1p)$")
    key = {name: dispatch[name]["dd"]["current"] for name in ("sin", "cos", "log1p")}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    key["openblas_core"] = "unknown"
    if libs:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        key["openblas_core"] = corename().decode()
    return key


def main() -> None:
    from thztrack import build_codebook, save
    from thztrack.config import RunConfig, build_grid, build_objective_template, build_pso

    rc = RunConfig()
    cb = build_codebook(build_grid(rc), build_objective_template(rc), build_pso(rc))
    GOLDEN.mkdir(exist_ok=True)
    save(cb, CODEBOOK)
    HOST.write_text(json.dumps(host_key(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cb.entries)} cells to {CODEBOOK.name} and the host key to {HOST.name}")


if __name__ == "__main__":
    main()
