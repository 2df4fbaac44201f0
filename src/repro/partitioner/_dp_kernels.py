"""Optional numba-JIT kernel for the banded ``form_stage_dp`` reduction.

The kernel reduces one stage of the banded DP (see
``_banded_stage_numpy`` in ``stage_dp``) with explicit loops, which numba
compiles to native code.  It is written to be *bit-identical* to the
NumPy engine: the same float64 max/add expressions per transition, the
same first-minimum ``b'`` tie-break (strict ``<`` while scanning ``b'``
ascending, matching ``np.argmin``), the same cross-column update rule
``(v < cur) | (v == cur and b' < cur_b')``, and the same memory/bs
failure-mask accumulation that drives the ``d_min`` replay.

numba is an *optional* dependency: when it is absent the decorator is a
no-op and the kernel remains a plain-Python function -- far too slow for
production but exactly the same semantics, which is how the parity tests
exercise the kernel logic on tiny graphs without numba installed.
``resolve_dp_engine`` only routes to the kernel when
:func:`kernel_available` is true, i.e. when numba is importable (or a
test forces ``NUMBA_AVAILABLE``).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op stand-in: keeps the kernel importable (and testable as
        plain Python) when numba is not installed."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


def kernel_available() -> bool:
    """Whether the JIT kernel should be selected by the engine resolver.
    Reads :data:`NUMBA_AVAILABLE` at call time so tests can force the
    plain-Python kernel path."""
    return NUMBA_AVAILABLE


@njit(cache=True)
def banded_stage_kernel(
    band_tf,       # (P, k, span) float64
    band_tb,       # (P, k, span) float64
    band_mem,      # (P, k, span) float64
    plane_of_r,    # (D+1,) int64, -1 = microbatch collapsed
    prev_ok,       # (k+1, D+1) bool: finite V[s-1] states
    ptf,           # (k+1, D+1) float64: tf[s-1]
    ptb,           # (k+1, D+1) float64: tb[s-1]
    s,             # current stage
    b_hi,          # last block row of stage s
    d_hi,          # last device column of stage s
    M,             # usable device memory
    best,          # (k+1, D+1) float64, in/out
    best_tf,       # (k+1, D+1) float64, in/out
    best_tb,       # (k+1, D+1) float64, in/out
    best_bp,       # (k+1, D+1) int64, in/out
    best_dp,       # (k+1, D+1) int64, in/out
    memf,          # (k+1, D+1) bool, in/out
    bsf,           # (k+1, D+1) bool, in/out
):
    span = band_tf.shape[2]
    for dpp in range(s - 1, d_hi):
        col_any = False
        for bp in range(s - 1, b_hi):
            if prev_ok[bp, dpp]:
                col_any = True
                break
        if not col_any:
            continue
        nd = d_hi - dpp
        for r in range(1, nd + 1):
            d = dpp + r
            p = plane_of_r[r]
            if p < 0:
                # microbatch collapsed at this replica count: every valid
                # transition is a bs failure (the dense engine's FIN plane
                # is all-False there)
                for b in range(s, b_hi + 1):
                    if bsf[b, d]:
                        continue
                    for bp in range(s - 1, b):
                        if prev_ok[bp, dpp]:
                            bsf[b, d] = True
                            break
                continue
            for b in range(s, b_hi + 1):
                vbest = np.inf
                bpbest = -1
                ctf_best = 0.0
                ctb_best = 0.0
                for bp in range(s - 1, b):
                    if not prev_ok[bp, dpp]:
                        continue
                    j = b - bp - 1
                    if j >= span:
                        continue
                    if band_mem[p, bp, j] > M:
                        memf[b, d] = True
                        continue
                    ctf = ptf[bp, dpp]
                    stf = band_tf[p, bp, j]
                    if stf > ctf:
                        ctf = stf
                    ctb = ptb[bp, dpp]
                    stb = band_tb[p, bp, j]
                    if stb > ctb:
                        ctb = stb
                    v = ctf + ctb
                    if v < vbest:   # strict: first minimum in b' order
                        vbest = v
                        bpbest = bp
                        ctf_best = ctf
                        ctb_best = ctb
                if bpbest >= 0:
                    cur = best[b, d]
                    if vbest < cur or (
                        vbest == cur and bpbest < best_bp[b, d]
                    ):
                        best[b, d] = vbest
                        best_tf[b, d] = ctf_best
                        best_tb[b, d] = ctb_best
                        best_bp[b, d] = bpbest
                        best_dp[b, d] = dpp
