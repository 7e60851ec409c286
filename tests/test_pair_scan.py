"""Tests for the pair-scan engine: the blocked float pass and the exact
tournament behind brute force and bound certification.

The anchors are the engine's own results under other settings: a scan split
into several blocks gives the single-block results, and an exact tournament
over every crossing pair, with no float filter, finds the same maximum and
the same ties as the filtered brute force.
"""

from __future__ import annotations

import numpy as np
import pytest

from kvol import ratios
from kvol.field import trig_value
from kvol.intersect import intersection_form
from kvol.ratios import (
    _exact_max,
    _pair_key,
    _RadicalContext,
    closed_atoms,
    kvol_bruteforce,
    verify_ngon_bound,
)
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import build_ngon, build_staircase


def witness_keys(report):
    return [(_pair_key(a, b), I) for a, b, I in report.witnesses]


def scan_ngon10(monkeypatch, block_entries):
    """Brute force and bound report of the n=10 n-gon at L = 3, with the
    number of blocks the last pair scan used."""
    monkeypatch.setattr(ratios, "_BLOCK_ENTRIES", block_entries)
    starts = []
    blocks = ratios._ratio_blocks

    def counted(form, curves):
        starts.clear()
        for block in blocks(form, curves):
            starts.append(block[0])
            yield block

    monkeypatch.setattr(ratios, "_ratio_blocks", counted)
    brute = kvol_bruteforce(build_ngon(10), 3)
    bound = verify_ngon_bound(10).to_dict()
    return brute, bound, len(starts)


def test_multi_block_scan_matches_single_block(monkeypatch):
    brute1, bound1, nblocks = scan_ngon10(monkeypatch, ratios._BLOCK_ENTRIES)
    assert brute1.params["count_curves"] == 310
    assert nblocks == 1
    brute4, bound4, nblocks = scan_ngon10(monkeypatch, 1)
    assert nblocks >= 4
    assert brute4.exact_value == brute1.exact_value
    assert witness_keys(brute4) == witness_keys(brute1)
    assert bound4 == bound1


def test_near_max_filtered_against_final_maximum(monkeypatch):
    # one row per block: 0.9 leads block 0, 1 - 5e-10 is within the slack of
    # the final maximum 1.0, which only the last block reaches
    rows = [(1, 0.9, 9), (2, 1.0 - 5e-10, 7), (3, 1.0, 5)]
    blocks = []
    for i0, (j, ratio, count) in enumerate(rows):
        R, I = np.zeros((1, 4)), np.zeros((1, 4), dtype=np.int64)
        R[0, j], I[0, j] = ratio, count
        blocks.append((i0, I, R))
    monkeypatch.setattr(ratios, "_ratio_blocks", lambda form, curves: iter(blocks))
    scan = ratios._scan_pairs(None, None, floor=0.95)
    assert scan.best == 1.0 and scan.crossing == 3
    assert scan.near_max == [(1, 2, 7), (2, 3, 5)]
    assert scan.above == [(1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None, floor=0.0).above == [(0, 1, 9), (1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None).above == []


@pytest.mark.parametrize(
    "X, L",
    [
        (build_ngon(8), 2),
        (build_staircase(10), trig_value(10, "sin", 1) * 3),
    ],
    ids=["ngon8-L2", "staircase10-3lm"],
)
def test_float_filter_drops_no_maximizer(X, L):
    curves = closed_atoms(X, enumerate_saddle_connections(X, L))
    form = intersection_form(X)
    G = form.gram(curves)
    crossing = [(i, j, int(G[i, j])) for i, j in zip(*np.nonzero(np.triu(G, 1)))]
    ctx = _RadicalContext(X.n)
    ((_, _, I), den), ties = _exact_max(ctx, curves, crossing)

    report = kvol_bruteforce(X, L, form=form)
    assert report.exact_ratio is not None
    r2 = report.exact_ratio * report.exact_ratio
    assert ctx.sign(ctx.add(ctx.scale(den, r2), ctx.const(-I * I))) == 0
    all_ties = sorted((_pair_key(curves[i], curves[j]), I) for (i, j, I), _ in ties)
    assert all_ties == witness_keys(report)
    assert len(crossing) > len(ties)
