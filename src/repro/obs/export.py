"""Exporters: Chrome trace-event JSON, CSV, Prometheus text exposition.

All three are pure functions of the :class:`~repro.obs.span.Observer`
contents — no wall clock, no environment lookups, stable ordering and
stable float rendering — so exporting the same seeded run twice yields
byte-identical files (asserted by ``tests/obs`` and the CI obs-smoke
job).

The Chrome format targets ``chrome://tracing`` / Perfetto: span groups
become processes, tracks become named threads, spans are complete
(``"X"``) events, instants ``"i"`` events and counter series ``"C"``
events; span/parent ids ride along in ``args`` so the request hierarchy
survives the round trip.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.errors import ConfigError
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               _fmt_float)
from repro.obs.span import Observer

PathLike = Union[str, Path]

#: File suffixes routed to Prometheus text exposition by :func:`write_metrics`.
PROMETHEUS_SUFFIXES = (".prom", ".txt")


_str = json.encoder.encode_basestring_ascii
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_INF = float("inf")


def _float(x: float) -> str:
    """A float as ``json.dumps`` spells it (NaN and the infinities too)."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _value(v) -> str:
    """One JSON value, byte for byte as the canonical encoder writes it."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _str(v)
    if t is float:
        return _float(v)
    return _ENCODER.encode(v)  # bool, None, containers, subclasses


def _object(data: dict) -> str:
    """A ``{key: value}`` object with sorted keys."""
    return "{" + ",".join([_str(k) + ":" + _value(v)
                           for k, v in sorted(data.items())]) + "}"


def chrome_trace_json(obs: Observer) -> str:
    """The observer's records as Chrome trace-event JSON, one line.

    Each event is written straight to its canonical text — the bytes
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` gives
    the same object — without building the object first.  Groups get
    pids and (group, track) pairs per-group tids in first-seen order
    over spans, then instants, then counters; metadata events naming
    them lead the event list.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    n_tracks: Dict[str, int] = {}

    def lane(group: str, track: str) -> Tuple[int, int]:
        """(pid, tid) of a track, numbering it if new."""
        tid = tids.get((group, track))
        if tid is None:
            if group not in pids:
                pids[group] = len(pids) + 1
            tid = tids[group, track] = n_tracks[group] = (
                n_tracks.get(group, 0) + 1)
        return pids[group], tid

    # An event's text around its varying fields depends only on its
    # kind, lane, name and category: render it once per combination.
    # Times print in microseconds on a sub-ns grid.  A finite float
    # prints as json does through str(); "x - x" is NaN (truthy) only
    # for NaN and the infinities, which take json's spelling.
    fixed: Dict[tuple, Any] = {}
    events: List[str] = []
    add = events.append
    for span_id, parent_id, group, track, name, cat, start_s, end_s, \
            span_args in obs.span_rows():
        key = ("X", group, track, name, cat)
        text = fixed.get(key)
        if text is None:
            pid, tid = lane(group, track)
            text = fixed[key] = (
                f',"cat":{_str(cat or "default")},"dur":',
                f',"name":{_str(name)},"ph":"X","pid":{pid},"tid":{tid},'
                f'"ts":')
        args = dict(span_args)
        args["span_id"] = span_id
        if parent_id is not None:
            args["parent_id"] = parent_id
        ts = round(start_s * 1e6, 3)
        dur = round((end_s - start_s) * 1e6, 3)
        if ts - ts or dur - dur:
            ts, dur = _float(ts), _float(dur)
        add(f'{{"args":{_object(args)}{text[0]}{dur}{text[1]}{ts}}}')
    for _, parent_id, group, track, name, cat, time_s, instant_args \
            in obs.instant_rows():
        key = ("i", group, track, name, cat)
        text = fixed.get(key)
        if text is None:
            pid, tid = lane(group, track)
            text = fixed[key] = (
                f',"cat":{_str(cat or "default")},"name":{_str(name)},'
                f'"ph":"i","pid":{pid},"s":"t","tid":{tid},"ts":')
        args = dict(instant_args)
        if parent_id is not None:
            args["parent_id"] = parent_id
        add(f'{{"args":{_object(args)}{text}'
            f'{_float(round(time_s * 1e6, 3))}}}')
    for group, track, name, time_s, value in obs.counter_rows():
        key = ("C", group, track, name)
        text = fixed.get(key)
        if text is None:
            pid, tid = lane(group, track)
            text = fixed[key] = (
                f'{{"args":{{{_str(track)}:',
                f'}},"name":{_str(name)},"ph":"C","pid":{pid},"tid":{tid},'
                f'"ts":')
        ts = round(time_s * 1e6, 3)
        if ts - ts or value - value:
            ts, value = _float(ts), _float(value)
        add(f'{text[0]}{value}{text[1]}{ts}}}')

    meta = [f'{{"args":{{"name":{_str(group)}}},"name":"process_name",'
            f'"ph":"M","pid":{pid}}}' for group, pid in pids.items()]
    meta += [f'{{"args":{{"name":{_str(track)}}},"name":"thread_name",'
             f'"ph":"M","pid":{pids[group]},"tid":{tid}}}'
             for (group, track), tid in tids.items()]
    return ('{"displayTimeUnit":"ms","traceEvents":['
            + ",".join(meta + events) + "]}\n")


def to_chrome_trace(obs: Observer) -> dict:
    """The observer's records as a Chrome trace-event object."""
    return json.loads(chrome_trace_json(obs))


def write_chrome_trace(path: PathLike, obs: Observer) -> Path:
    """Write the Perfetto-loadable trace; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(chrome_trace_json(obs))
    return out


# -- spans as CSV -------------------------------------------------------------

SPAN_CSV_HEADER = ["span_id", "parent_id", "group", "track", "name", "cat",
                   "start_s", "end_s", "duration_s", "args"]


def write_spans_csv(path: PathLike, obs: Observer) -> Path:
    """Flat per-span rows (one line per closed span, close order)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPAN_CSV_HEADER)
        for span_id, parent_id, group, track, name, cat, start_s, end_s, \
                args in obs.span_rows():
            writer.writerow([
                span_id, "" if parent_id is None else parent_id,
                group, track, name, cat,
                f"{start_s:.9f}", f"{end_s:.9f}", f"{end_s - start_s:.9f}",
                ";".join(f"{k}={v}" for k, v in args),
            ])
    return out


# -- metrics ------------------------------------------------------------------

def write_metrics_csv(path: PathLike, registry: MetricsRegistry) -> Path:
    """Snapshot rows as CSV (metric, type, labels, value)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "type", "labels", "value"])
        for row in registry.snapshot_rows():
            writer.writerow([row["metric"], row["type"], row["labels"],
                             _fmt_float(row["value"])])
    return out


def _prom_labels(items) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (one ``# TYPE`` header per metric)."""
    lines: List[str] = []
    typed: Dict[str, str] = {}
    for inst in registry.instruments():
        if inst.name not in typed:
            typed[inst.name] = inst.kind
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, (Counter, Gauge)):
            lines.append(f"{inst.name}{_prom_labels(inst.labels)} "
                         f"{_fmt_float(inst.value)}")
        elif isinstance(inst, Histogram):
            for bound, cum in zip(inst.bounds, inst.cumulative()):
                items = inst.labels + (("le", _fmt_float(bound)),)
                lines.append(f"{inst.name}_bucket{_prom_labels(items)} {cum}")
            items = inst.labels + (("le", "+Inf"),)
            lines.append(f"{inst.name}_bucket{_prom_labels(items)} "
                         f"{inst.count}")
            lines.append(f"{inst.name}_sum{_prom_labels(inst.labels)} "
                         f"{_fmt_float(inst.sum)}")
            lines.append(f"{inst.name}_count{_prom_labels(inst.labels)} "
                         f"{inst.count}")
        else:  # pragma: no cover - registry only creates the three kinds
            raise ConfigError(f"unknown instrument type {type(inst)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: PathLike, registry: MetricsRegistry) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(prometheus_text(registry))
    return out


def write_metrics(path: PathLike, registry: MetricsRegistry) -> Path:
    """Dispatch on suffix: ``.prom``/``.txt`` -> Prometheus, else CSV."""
    if Path(path).suffix in PROMETHEUS_SUFFIXES:
        return write_prometheus(path, registry)
    return write_metrics_csv(path, registry)
