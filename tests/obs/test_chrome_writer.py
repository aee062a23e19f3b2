"""The direct Chrome-trace writer against a reference dict builder.

``chrome_trace_json`` writes each event's canonical text directly.  The
reference here builds the trace-event object as plain dicts and renders
it with ``json.dumps(sort_keys=True, separators=(",", ":"))``; the two
must agree byte for byte on every observer, including awkward strings
and float values.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observer, chrome_trace_json, to_chrome_trace


def reference_trace(obs: Observer) -> dict:
    """The trace-event object, built the straightforward way."""
    pids, tids, events = {}, {}, []

    def pid(group):
        return pids.setdefault(group, len(pids) + 1)

    def tid(group, track):
        if (group, track) not in tids:
            tids[group, track] = sum(1 for g, _ in tids if g == group) + 1
        return tids[group, track]

    def us(t):
        return round(t * 1e6, 3)

    for s in obs.spans:
        args = dict(s.args)
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append({
            "ph": "X", "name": s.name, "cat": s.cat or "default",
            "pid": pid(s.group), "tid": tid(s.group, s.track),
            "ts": us(s.start_s), "dur": us(s.end_s - s.start_s),
            "args": args})
    for i in obs.instants:
        args = dict(i.args)
        if i.parent_id is not None:
            args["parent_id"] = i.parent_id
        events.append({
            "ph": "i", "s": "t", "name": i.name, "cat": i.cat or "default",
            "pid": pid(i.group), "tid": tid(i.group, i.track),
            "ts": us(i.time_s), "args": args})
    for c in obs.counters:
        events.append({
            "ph": "C", "name": c.name, "pid": pid(c.group),
            "tid": tid(c.group, c.track), "ts": us(c.time_s),
            "args": {c.track: c.value}})
    meta = [{"ph": "M", "name": "process_name", "pid": p,
             "args": {"name": g}} for g, p in pids.items()]
    meta += [{"ph": "M", "name": "thread_name", "pid": pids[g], "tid": t,
              "args": {"name": track}} for (g, track), t in tids.items()]
    return {"displayTimeUnit": "ms", "traceEvents": meta + events}


def reference_json(obs: Observer) -> str:
    return json.dumps(reference_trace(obs), sort_keys=True,
                      separators=(",", ":")) + "\n"


AWKWARD = ["naïve", 'quo"te', "back\\slash", "tab\tnew\nline", "\x00\x1f",
           " sep", "emoji \U0001f600", "", "/slash"]

VALUES = [True, False, None, 2 ** 70, -(2 ** 64), 0, -0.0, 0.1, 1e300,
          -1e-300, 5e-324, float("nan"), float("inf"), float("-inf"),
          (1, "a", 2.5), [None, [True, -0.0]], {"z": 1, "a": [2]}, "plain"]


def _awkward_observer() -> Observer:
    obs = Observer()
    for n, text in enumerate(AWKWARD):
        obs.set_group(f"group {text}")
        span = obs.begin(f"span {text}", cat=text, track=f"track {text}",
                         time_s=n, label=text, value=VALUES[n])
        obs.instant(f"instant {text}", cat=text, track=f"track {text}",
                    time_s=n + 0.5, **{f"key {text}": text})
        obs.counter(f"series {text}", float(n) / 3.0, track=text,
                    time_s=n + 0.25)
        obs.end(span, time_s=n + 1.0, value=VALUES[-1 - n])
    return obs


class TestMatchesReference:
    def test_awkward_strings_and_values(self):
        obs = _awkward_observer()
        for n, value in enumerate(VALUES):
            obs.complete("values", n, n + 0.5, track="v", value=value,
                         tuple_arg=(value, n), list_arg=[value])
            obs.instant("value", track="v", time_s=n, value=value)
        assert chrome_trace_json(obs) == reference_json(obs)

    def test_non_finite_times_and_counter_values(self):
        obs = Observer()
        inf, nan = float("inf"), float("nan")
        obs.complete("open-ended", 0.0, inf)
        obs.complete("from-nowhere", -inf, 1.0)
        obs.complete("unknown", nan, nan)
        obs.instant("never", time_s=inf)
        for value in (nan, inf, -inf, -0.0, 1e300):
            obs.counter("c", value, time_s=1.0)
        obs.counter("late", 1.0, time_s=nan)
        assert chrome_trace_json(obs) == reference_json(obs)

    def test_parentless_and_nested_records(self):
        obs = Observer()
        outer = obs.begin("outer", track="t", time_s=0.0)
        obs.complete("child", 0.1, 0.2, track="t")  # parent: outer
        obs.complete("orphan", 0.1, 0.2, track="t", parent=-1)
        obs.instant("child-instant", track="t", time_s=0.3)
        obs.instant("loose-instant", track="elsewhere", time_s=0.3)
        obs.end(outer, time_s=1.0)
        obs.complete("after", 1.0, 2.0, track="t")  # stack empty again
        trace = to_chrome_trace(obs)
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        assert by_name["child"]["args"]["parent_id"] == outer
        assert "parent_id" not in by_name["orphan"]["args"]
        assert "parent_id" not in by_name["loose-instant"]["args"]
        assert chrome_trace_json(obs) == reference_json(obs)

    def test_merged_and_reserved_arg_keys(self):
        obs = Observer()
        span = obs.begin("s", time_s=0.0, node=1, zeta="z")
        obs.end(span, time_s=1.0, node=2, alpha="a")  # duplicate "node"
        obs.complete("c", 0.0, 1.0, span_id="shadowed", parent_id=5)
        obs.instant("i", time_s=0.0, parent_id="kept")
        assert chrome_trace_json(obs) == reference_json(obs)

    def test_interleaved_groups_number_tracks_per_group(self):
        obs = Observer()
        for n in range(12):
            obs.set_group(f"g{n % 3}")
            obs.complete("x", n, n + 1, track=f"t{n % 4}")
            obs.counter("c", n, track=f"k{n % 5}", time_s=n)
            obs.instant("i", track=f"t{n % 2}", time_s=n)
        assert chrome_trace_json(obs) == reference_json(obs)
        tids = {}
        for e in to_chrome_trace(obs)["traceEvents"]:
            if e["name"] == "thread_name":
                tids.setdefault(e["pid"], []).append(e["tid"])
        assert all(t == list(range(1, len(t) + 1)) for t in tids.values())

    def test_empty_observer(self):
        obs = Observer()
        assert chrome_trace_json(obs) == reference_json(obs)
        assert chrome_trace_json(obs) == (
            '{"displayTimeUnit":"ms","traceEvents":[]}\n')


def _floats():
    return st.floats(allow_nan=True, allow_infinity=True)


def _arg_values():
    leaf = st.one_of(st.none(), st.booleans(), st.integers(), _floats(),
                     st.text(max_size=6))
    return st.recursive(leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.tuples(inner, inner)), max_leaves=5)


_records = st.lists(st.tuples(
    st.sampled_from(["complete", "instant", "counter", "group"]),
    st.text(max_size=6), st.text(max_size=4), _floats(), _floats(),
    st.dictionaries(st.text(max_size=5), _arg_values(), max_size=3)),
    max_size=12)


class TestProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_records)
    def test_random_observers_match_reference(self, records):
        obs = Observer()
        for kind, name, track, a, b, args in records:
            args = {k: v for k, v in args.items()
                    if k not in ("name", "cat", "track", "parent",
                                 "time_s", "start_s", "end_s", "value")}
            if kind == "complete":
                obs.complete(name, a, b, track=track, **args)
            elif kind == "instant":
                obs.instant(name, track=track, time_s=a, **args)
            elif kind == "counter":
                obs.counter(name, b, track=track, time_s=a)
            else:
                obs.set_group(name)
        text = chrome_trace_json(obs)
        assert text == reference_json(obs)
        assert text.isascii()
        if "NaN" not in text:  # NaN != NaN defeats dict equality
            assert to_chrome_trace(obs) == json.loads(reference_json(obs))
