"""The closed-form ``d_min`` rule (:func:`_dmin_keep`) against the
per-cell loop it replaced: same kept cells, same visited-state count."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioner.stage_dp import _dmin_keep


def _loop_oracle(fin, memf, bsf, s, b_hi, d_hi, dmin_pruning):
    """The (b ascending, d descending) replay, verbatim."""
    keep = np.zeros(fin.shape, dtype=bool)
    states = 0
    d_min = 1
    fin_rows, memf_rows, bsf_rows = fin.tolist(), memf.tolist(), bsf.tolist()
    for b in range(s, b_hi + 1):
        d_lo = max(d_min, s)
        if d_lo > d_hi:
            continue
        stop = d_lo
        for d in range(d_hi, d_lo - 1, -1):
            states += 1
            if (
                dmin_pruning
                and not fin_rows[b][d]
                and memf_rows[b][d]
                and not bsf_rows[b][d]
            ):
                stop = d
                d_min = d + 1
                break
        keep[b, stop:d_hi + 1] = True
    return keep, states


@st.composite
def _masks(draw):
    k = draw(st.integers(1, 12))
    D = draw(st.integers(1, 12))
    s = draw(st.integers(1, max(k, D) + 1))
    # bounds below s give empty row/column ranges
    b_hi = draw(st.integers(0, k))
    d_hi = draw(st.integers(0, D))
    # memory failures dense enough that d_min climbs past d_hi mid-stage
    density = draw(st.sampled_from([0.05, 0.3, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (k + 1, D + 1)
    fin = rng.random(shape) < 0.4
    memf = rng.random(shape) < density
    bsf = rng.random(shape) < 0.2
    return fin, memf, bsf, s, b_hi, d_hi


@settings(max_examples=300, deadline=None)
@given(case=_masks(), dmin_pruning=st.booleans())
def test_closed_form_matches_cell_loop(case, dmin_pruning):
    fin, memf, bsf, s, b_hi, d_hi = case
    keep, states = _dmin_keep(fin, memf, bsf, s, b_hi, d_hi, dmin_pruning)
    ref_keep, ref_states = _loop_oracle(
        fin, memf, bsf, s, b_hi, d_hi, dmin_pruning
    )
    assert states == ref_states
    assert np.array_equal(keep, ref_keep)


def test_rows_skipped_once_d_min_passes_d_hi():
    # row 1 breaks at its top cell d = 3 = d_hi, so d_min = 4 > d_hi and
    # rows 2..3 are skipped: no visits, nothing kept
    shape = (4, 4)
    fin = np.zeros(shape, dtype=bool)
    memf = np.zeros(shape, dtype=bool)
    bsf = np.zeros(shape, dtype=bool)
    memf[1, 3] = True
    keep, states = _dmin_keep(fin, memf, bsf, 1, 3, 3, True)
    assert states == 1
    assert keep.tolist() == [
        [False] * 4,
        [False, False, False, True],
        [False] * 4,
        [False] * 4,
    ]
    assert _loop_oracle(fin, memf, bsf, 1, 3, 3, True)[1] == 1
    # without pruning every row visits [s, d_hi]
    keep, states = _dmin_keep(fin, memf, bsf, 1, 3, 3, False)
    assert states == 9 and keep[1:, 1:].all() and not keep[:, 0].any()
