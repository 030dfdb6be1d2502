from spans import Tracer, self_time_by_name, self_times


def span(id_, name, start, end, parent=None, op="op1"):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "op": op}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "stage", 1.0, 7.0, parent=0),
        span(2, "inner", 2.0, 4.0, parent=1),
        span(3, "stage", 7.0, 9.5, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 1.5, 1: 4.0, 2: 2.0, 3: 2.5}
    assert sum(own.values()) == 10.0  # self times partition the root


def test_self_time_by_name_sums_and_counts_within_one_op():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "stage", 1.0, 7.0, parent=0),
        span(2, "stage", 7.0, 9.5, parent=0),
        span(3, "stage", 0.0, 99.0, op="op2"),
    ]
    assert self_time_by_name(spans, "op1") == {"op": (1.5, 1), "stage": (8.5, 2)}


def test_tracer_nests_and_accepts_spans_timed_elsewhere():
    tracer = Tracer()
    tracer.op = "op1"
    with tracer.span("op") as root:
        with tracer.span("stage"):
            pass
        tracer.add("child-process", 1.0, 2.0)
    names = {s["name"]: s for s in tracer.spans}
    assert names["stage"]["parent"] == root["id"]
    assert names["child-process"]["parent"] == root["id"]
    assert names["op"]["parent"] is None and root["end"] >= root["start"]
    assert all(s["op"] == "op1" for s in tracer.spans)
