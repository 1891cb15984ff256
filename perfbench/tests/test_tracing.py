import pytest

import tracing


# root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c [8, 9];
# a has child a1 [2, 3]; a lone second root r2 [12, 13]
SPANS = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["a1", 2.0, 3.0, 1],
    ["b", 3.0, 6.0, 0],
    ["c", 8.0, 9.0, 0],
    ["r2", 12.0, 13.0, -1],
]


def test_self_time_subtracts_union_of_children():
    # root: children cover [1, 6] and [8, 9] -> 6 of 10, self 4
    assert tracing.self_times(SPANS) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [["p", 0.0, 2.0, -1], ["k", 1.0, 5.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_durations_count_outermost_same_name_only():
    spans = [["f", 0.0, 4.0, -1], ["g", 1.0, 3.0, 0], ["f", 1.5, 2.5, 1], ["f", 5.0, 6.0, -1]]
    assert tracing.durations_by_name(spans)["f"] == pytest.approx([4.0, 1.0])
    assert tracing.durations_by_name(spans)["g"] == pytest.approx([2.0])


def test_root_busy_and_self_by_name():
    assert tracing.root_busy(SPANS) == pytest.approx(11.0)
    assert tracing.self_by_name(SPANS + [["a", 20.0, 21.0, -1]])["a"] == pytest.approx(3.0)


def test_tail_needs_ten_samples_beyond():
    assert tracing.tail([]) == ("none", 0.0)
    assert tracing.tail(list(range(19))) == ("max", 18)
    assert tracing.tail(list(range(20))) == ("p50", 9)
    assert tracing.tail(list(range(1, 101))) == ("p90", 90)
    assert tracing.tail(list(range(1, 1001))) == ("p99", 990)


def test_tracer_records_parents_counts_and_facts():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    calls = []
    inner_w = tr.spanned(inner, "inner")
    iou = tr.counted(lambda a, b: calls.append((a, b)) or 0.5, "iou")
    outer_w = tr.spanned(lambda: [inner_w(1), iou(1, 2), iou(3, 4)], "inference.form_proposals")
    assert outer_w() == [2, 0.5, 0.5]
    assert tr.spans == [["inference.form_proposals", 0, 3, -1], ["inner", 1, 2, 0]]
    assert tr.counts["iou"] == 2
    # the form_proposals observer counts the returned candidates
    assert tr.facts["inference.form_proposals"] == [{"candidates": 3}]


def test_tracer_closes_span_on_exception():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.spanned(boom, "boom")()
    assert tr.stack == [] and tr.spans[0][2] is not None
