"""Backend selection for the row-reduction hot kernel.

At import time this module picks the compiled core (`_rowred`, built from
Cython) when it is available, unless the environment variable
``FULTONCHECK_PURE`` is set to a non-empty value, in which case the
pure-Python reference kernel is used. The compiled core multiplies residues
in signed 64-bit integers, so it is exact only for p < 2**31; larger moduli
always go to the pure kernel, which uses Python ints and the built-in modular
inverse. Both backends produce identical output.
"""

from __future__ import annotations

import os

from . import _rowred_py

if os.environ.get("FULTONCHECK_PURE"):
    _compiled = None
else:
    try:
        from . import _rowred as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None

HAVE_COMPILED = _compiled is not None
BACKEND = "compiled" if HAVE_COMPILED else "pure"
# Largest modulus (exclusive) whose residue products fit in a signed int64.
COMPILED_P_LIMIT = 2**31

if HAVE_COMPILED:
    import numpy as _np


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """RREF of an integer matrix mod p; returns (reduced rows, pivot columns).

    The input list-of-lists is consumed (the pure backend reduces it in
    place); callers pass a fresh copy. Moduli p >= 2**31 always use the pure
    kernel, whatever the selected backend.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if _compiled is not None and nrows and ncols and p < COMPILED_P_LIMIT:
        a = _np.array(rows, dtype=_np.int64)
        piv = _np.empty(min(nrows, ncols), dtype=_np.int64)
        k = _compiled.rref_mod_inplace(a, piv, p)
        return a.tolist(), piv[:k].tolist()
    return _rowred_py.rref_mod(rows, p)


rref_frac = _rowred_py.rref_frac
