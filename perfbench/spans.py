"""Spans around layer calls, and the per-layer ledger built from them.

Every run keeps spans (name, start, end, parent, op id, attributes) in
memory; op timings for the end-to-end metrics come from them. A traced
run additionally

- puts each span's Spark jobs in a job group named after the span id,
- counts rows collected to the driver (``DataFrame.collect``/``toPandas``)
  inside each span,
- lets the workloads attach plan and memory attributes to spans,

and, after the session stops, joins the Spark event log's
``SparkListenerJobStart`` group ids to the ``SparkListenerStageCompleted``
accumulables to give each span its jobs, stages, executor time and
shuffle traffic. :data:`LAYER_METRICS` turns the spans into the
``<layer>.<metric>`` values the benchmark reports, each the mean over the
layer's calls unless its definition says otherwise.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Stage accumulables summed per span, as (event-log name, span counter).
_STAGE_ACCUMULABLES = {
    "internal.metrics.executorRunTime": "executor_ms",
    "internal.metrics.shuffle.write.bytesWritten": "shuffle_write_bytes",
    "internal.metrics.shuffle.write.recordsWritten": "shuffle_write_records",
}


class Tracer:
    """Records spans; in traced mode also job groups and collected rows."""

    def __init__(self, sc, *, traced: bool):
        self.sc = sc
        self.traced = traced
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._collected = 0
        self._unpatch = _patch_collect(self) if traced else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as span ``name``; yields the span's attribute dict."""
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        if self.traced:
            self.sc.setJobGroup(f"span-{sid}", name)
            collected0 = self._collected
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self.traced:
                rec["collected_rows"] = self._collected - collected0
                if self._stack:
                    parent = self.spans[self._stack[-1]]
                    self.sc.setJobGroup(f"span-{parent['id']}", parent["name"])
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)

    def close(self) -> None:
        if self._unpatch is not None:
            self._unpatch()
            self._unpatch = None


def _patch_collect(tracer: Tracer):
    """Count rows that ``collect``/``toPandas`` bring to the driver.

    ``toPandas`` may call ``collect`` itself, so only the outermost call
    counts. Returns a function that restores the originals.
    """
    from pyspark.sql.classic.dataframe import DataFrame

    originals = {m: getattr(DataFrame, m) for m in ("collect", "toPandas")}
    depth = [0]

    def wrap(fn):
        def counted(self, *args, **kwargs):
            depth[0] += 1
            try:
                out = fn(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                tracer._collected += len(out)
            return out

        return counted

    for m, fn in originals.items():
        setattr(DataFrame, m, wrap(fn))

    def unpatch():
        for m, fn in originals.items():
            setattr(DataFrame, m, fn)

    return unpatch


def apply_event_log(spans: list[dict], log: Path) -> int:
    """Add ``jobs``, ``stages``, ``executor_ms``, ``shuffle_write_bytes``,
    ``shuffle_write_records`` and ``failed_tasks`` to each span from an
    uncompressed, non-rolling Spark event log. A span's counts are the jobs
    submitted while it was the innermost open span. A span that names the
    ``materialize_span`` evaluating its lazy result also gets that span's
    shuffle records as ``materialize_records``. Returns the number of jobs
    that ran outside every span."""
    per: dict[str | None, Counter] = defaultdict(Counter)
    stage_group: dict[int, str | None] = {}
    with open(log) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                per[group]["jobs"] += 1
                for sid in ev["Stage IDs"]:
                    stage_group.setdefault(sid, group)
            elif kind == "SparkListenerStageCompleted":
                info = ev["Stage Info"]
                group = stage_group.get(info["Stage ID"])
                per[group]["stages"] += 1
                for acc in info.get("Accumulables", []):
                    key = _STAGE_ACCUMULABLES.get(acc.get("Name"))
                    if key is not None:
                        per[group][key] += int(acc["Value"])
            elif kind == "SparkListenerTaskEnd":
                if ev["Task End Reason"]["Reason"] != "Success":
                    per[stage_group.get(ev["Stage ID"])]["failed_tasks"] += 1
    for s in spans:
        c = per.get(f"span-{s['id']}", Counter())
        for key in ("jobs", "stages", "executor_ms", "shuffle_write_bytes",
                    "shuffle_write_records", "failed_tasks"):
            s[key] = c[key]
    for s in spans:
        if "materialize_span" in s:
            s["materialize_records"] = spans[s["materialize_span"]]["shuffle_write_records"]
    return per[None]["jobs"]


def dur(s: dict) -> float:
    return s["end"] - s["start"]


def op_coverage(spans: list[dict]) -> dict[str, float]:
    """How much of the measured ops' wall time their child spans cover
    (min and mean share per op), and the share spent in ``trace`` spans,
    the tracer's own work inside ops."""
    selfs = self_times(spans)
    ops = [s for s in spans if s["name"] == "op"]
    if not ops:
        return {"min": 0.0, "mean": 0.0, "trace": 0.0}
    ratios = [1.0 - selfs[s["id"]] / dur(s) for s in ops]
    traced = sum(dur(s) for s in spans if s["name"] == "trace" and s["op"] is not None)
    return {"min": min(ratios), "mean": sum(ratios) / len(ratios),
            "trace": traced / sum(dur(s) for s in ops)}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it its children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur(s)
    return {s["id"]: dur(s) - covered[s["id"]] for s in spans}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _mean(calls, key):
    return sum(c[key] for c in calls) / len(calls)


def _wall(calls):
    return sum(dur(c) for c in calls) / len(calls)


def _ratio(num, den):
    return num / den if den else 0.0


def _std(layer: str) -> list[tuple]:
    """The standard Spark metrics of a Spark-side layer."""
    return [
        (layer, "wall_s", "s", _wall),
        (layer, "jobs", "count", lambda c: _mean(c, "jobs")),
        (layer, "stages", "count", lambda c: _mean(c, "stages")),
        (layer, "executor_s", "s", lambda c: _mean(c, "executor_ms") / 1e3),
        (layer, "busy_ratio", "ratio",
         lambda c: _ratio(sum(s["executor_ms"] for s in c) / 1e3,
                          sum(dur(s) for s in c) * c[0]["cores"])),
        (layer, "shuffle_write_bytes", "bytes", lambda c: _mean(c, "shuffle_write_bytes")),
        (layer, "failed_tasks", "count", lambda c: _mean(c, "failed_tasks")),
    ]


def _basic(layer: str) -> list[tuple]:
    return [
        (layer, "wall_s", "s", _wall),
        (layer, "jobs", "count", lambda c: _mean(c, "jobs")),
    ]


# (layer, metric, unit, aggregate over the layer's spans)
LAYER_METRICS: list[tuple] = [
    *_basic("kg.generator"),
    *_basic("tasks"),
    *_basic("kg.partition"),
    ("kg.partition", "shuffle_write_bytes", "bytes", lambda c: _mean(c, "shuffle_write_bytes")),
    ("kg.partition", "cached_bytes", "bytes", lambda c: _mean(c, "cached_bytes")),
    *_std("core.sparql_extract"),
    ("core.sparql_extract", "exchanges", "count", lambda c: _mean(c, "exchanges")),
    ("core.sparql_extract", "shuffle_records_per_kgp_triple", "ratio",
     lambda c: _ratio(sum(s["shuffle_write_records"] + s["materialize_records"] for s in c),
                      sum(s["kgp_triples"] for s in c))),
    *_std("core.subgraph"),
    *_std("core.walks"),
    ("core.walks", "shuffle_records_per_walker_step", "ratio",
     lambda c: _ratio(sum(s["shuffle_write_records"] for s in c),
                      sum(s["walker_steps"] for s in c))),
    *_std("core.ibs"),
    *_basic("metrics.sufficiency"),
    *_basic("metrics.topology.disconnected"),
    *_basic("metrics.topology.avg_dist"),
    ("metrics.topology.avg_dist", "collected_rows", "count", lambda c: _mean(c, "collected_rows")),
    *_basic("metrics.topology.entropy"),
    *_basic("gnn.encoding"),
    ("gnn.encoding", "collected_rows", "count", lambda c: _mean(c, "collected_rows")),
    ("gnn.encoding", "peak_mb", "MB", lambda c: _mean(c, "peak_mb")),
    ("gnn.saint", "wall_s", "s", _wall),
    ("gnn.saint", "peak_mb", "MB", lambda c: _mean(c, "peak_mb")),
    ("gnn.saint", "epochs_per_s", "1/s",
     lambda c: _ratio(sum(s["epochs"] for s in c), sum(dur(s) for s in c))),
    ("gnn.saint", "useful_epoch_ratio", "ratio",
     lambda c: _ratio(sum(s["useful_epochs"] for s in c), sum(s["epochs"] for s in c))),
    ("gnn.rgcn", "infer_s", "s", _wall),
    ("gnn.lp", "wall_s", "s", _wall),
    ("gnn.lp", "peak_mb", "MB", lambda c: _mean(c, "peak_mb")),
]


def layer_metrics(spans: list[dict], cores: int) -> dict[str, dict]:
    """``{"<layer>.<metric>": {"value", "unit"}}`` for every metric of
    :data:`LAYER_METRICS`, over the calls made by set-ups and measured ops
    (not by the warm-up); a layer that made no call reports 0."""
    warmup = {s["id"] for s in spans if s["name"] == "warmup"}
    by_layer: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] not in warmup:
            by_layer[s["name"]].append({**s, "cores": cores})
    out = {}
    for layer, metric, unit, agg in LAYER_METRICS:
        calls = by_layer.get(layer)
        out[f"{layer}.{metric}"] = {"value": float(agg(calls)) if calls else 0.0, "unit": unit}
    return out


def layer_summary(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, jobs, stages and
    exchanges, summed over the run."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], Counter())
        row["calls"] += 1
        row["total_s"] += dur(s)
        row["self_s"] += selfs[s["id"]]
        for key in ("jobs", "stages", "exchanges"):
            row[key] += s.get(key, 0)
    return {k: dict(v) for k, v in out.items()}
