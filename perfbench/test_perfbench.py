"""Tests of the benchmark's own arithmetic: set Dice and span self times.

    python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

from spans import Span, Tracer, nesting_violations, self_times, subtree
from workloads import mean_dice, set_dice


def _mask(h, w, rows, cols, label=1):
    m = np.zeros((h, w), dtype=np.int64)
    m[rows, cols] = label
    return m


def test_set_dice_overlap_by_hand():
    pred = _mask(4, 4, slice(0, 2), slice(0, 2))  # |P| = 4
    gt = _mask(4, 4, slice(0, 2), slice(0, 3))    # |G| = 6, |P & G| = 4
    assert set_dice(pred, gt, 1) == pytest.approx(2 * 4 / (4 + 6))


def test_set_dice_edge_cases():
    empty = np.zeros((3, 3), dtype=np.int64)
    one = _mask(3, 3, 0, 0)
    other = _mask(3, 3, 2, 2)
    assert set_dice(empty, empty, 1) == 1.0
    assert set_dice(one, other, 1) == 0.0
    assert set_dice(one, one, 1) == 1.0
    assert set_dice(one, empty, 1) == 0.0


def test_set_dice_picks_the_class():
    pred = np.array([[0, 1, 2], [2, 2, 1]])
    gt = np.array([[0, 2, 2], [2, 1, 1]])
    # class 1: P = {(0,1), (1,2)}, G = {(1,1), (1,2)} -> 2*1/4
    assert set_dice(pred, gt, 1) == pytest.approx(0.5)
    # class 2: P = {(0,2), (1,0), (1,1)}, G = {(0,1), (0,2), (1,0)} -> 2*2/6
    assert set_dice(pred, gt, 2) == pytest.approx(2 / 3)


def test_mean_dice_averages_classes_then_images():
    pred = np.array([[0, 1, 2], [2, 2, 1]])
    gt = np.array([[0, 2, 2], [2, 1, 1]])
    same = np.array([[1, 1, 2], [2, 2, 2]])
    got = mean_dice([pred, same], [gt, same], num_classes=3)
    assert got == pytest.approx(((0.5 + 2 / 3) / 2 + 1.0) / 2)


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("a.inner", 2.0, 3.0, 1),
             Span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert nesting_violations(spans) == []
    assert subtree(spans, 1) == [1, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("b", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_nesting_violations_flag_children_outside_the_span():
    spans = [Span("root", 0.0, 2.0, -1), Span("late", 1.0, 3.0, 0)]
    assert len(nesting_violations(spans)) == 1


def test_tracer_links_nested_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", rows=3):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.spans[1].attrs == {"rows": 3}
    assert all(t >= 0.0 for t in self_times(tracer.spans))
    assert nesting_violations(tracer.spans) == []
