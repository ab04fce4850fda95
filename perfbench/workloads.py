"""The benchmark's workloads: set-up, ops and output checks.

Each workload is a closed loop with one client: ``run.py`` sets it up
(``setup``), computes the expected outputs once (``prepare_checks``,
DuckDB over the collected KG), runs every code path of its ops once
untimed (``warmup``), then runs its ops in a fixed order, one after
another, in whole cycles. An op's timed part is a sequence of layer
calls, each in a span named after the ``repro`` module it exercises.
Its output check runs afterwards, outside the timed region, and raises
:class:`CheckFailed` when the output is wrong.

- ``extract-train``: the paper's method and its payoff, Table IV's
  pipelines. PV/MAG at sf 0.5 (80k triples, 10x the graph of
  ``sampler-quality``) on the full graph and on d1h1 KG' (encode,
  SAINT-RGCN train, infer), and CA/YAGO3-10 LP (encode, TransE, Hits@10)
  on the full graph and on d2h1 KG' with the bridge. Exercises the index, the NC and LP extraction
  plans and the driver-side ``gnn.*`` layers; runs no sampler and no
  quality indicator.
- ``sampler-quality``: one Table III row per op on PV/MAG (sf 0.05):
  d1h1, URW or IBS, then the four quality indicators. Dominated by walks,
  PPR, the topology indicators and the induced subgraph; one op in three
  touches the index; runs no GNN layer.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import duckdb
import numpy as np
import pandas as pd

import adapter as A


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    name: str
    kind: str  # "kgp" (KG-TOSA extraction first), "fg" (full graph) or "sampler"
    run: Callable  # (tracer) -> outputs; the timed part
    check: Callable  # (outputs) -> None; raises CheckFailed


# ---------------------------------------------------------------------------
# DuckDB oracle
# ---------------------------------------------------------------------------

# The BGP of the (d, h) variants the workloads run, over the raw triple
# table ``t`` and the target set ``g``, as tests/test_sparql_extract.py
# states it.
ORACLE_SQL = {
    (1, 1): "SELECT DISTINCT t.s, t.p, t.o FROM t WHERE t.s IN (SELECT id FROM g)",
    (2, 1): """SELECT DISTINCT t.s, t.p, t.o FROM t
               WHERE t.s IN (SELECT id FROM g) OR t.o IN (SELECT id FROM g)""",
}


def duck(sql: str, params: list | None = None, **tables) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return con.execute(sql, params or []).fetchdf()
    finally:
        con.close()


def digest(triples: pd.DataFrame) -> tuple[int, int]:
    """Row count and an order-independent hash of a triple set."""
    rows = pd.util.hash_pandas_object(triples[["s", "p", "o"]], index=False)
    return len(triples), int(rows.to_numpy().sum(dtype=np.uint64))


def bgp_digest(kg_pdf, g_pdf, d: int, h: int, lp_predicate: str | None):
    sql = ORACLE_SQL[(d, h)]
    params = None
    if lp_predicate is not None:
        sql = f"SELECT * FROM ({sql}) UNION SELECT s, p, o FROM t WHERE p = ?"
        params = [lp_predicate]
    return digest(duck(sql, params, t=kg_pdf, g=g_pdf))


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Layer calls shared by the workloads
# ---------------------------------------------------------------------------

def cached_bytes(sc) -> int:
    return sum(i.memSize() + i.diskSize() for i in sc._jsc.sc().getRDDStorageInfo())


def count_exchanges(kgp) -> int:
    """Exchange nodes in the physical plans of KG' (triples and nodes)."""
    return sum(
        len(re.findall(r"(?<![A-Za-z])Exchange\b", str(df._jdf.queryExecution().executedPlan())))
        for df in (kgp.triples, kgp.nodes)
    )


def generate(tr, spark, kg_name: str, sf: float, seed: int):
    with tr.span("kg.generator"):
        bundle = A.generate(kg_name, spark, sf=sf, seed=seed)
        bundle.kg.nodes.count(), bundle.kg.triples.count()
    return bundle


def index(tr, kg):
    before = cached_bytes(tr.sc) if tr.traced else 0
    with tr.span("kg.partition") as sp:
        idx = A.index(kg)
    if tr.traced:
        sp["cached_bytes"] = cached_bytes(tr.sc) - before
    return idx


def persisted(tr, df):
    with tr.span("tasks"):
        df = df.persist()
        df.count()
    return df


def materialize(tr, kgp, producer: dict):
    """Evaluate the lazy KG' a producer span returned, in its own span."""
    with tr.span("core.subgraph") as sp:
        A.materialize_kg(kgp)
    producer["materialize_span"] = sp["id"]
    return kgp


def extract(tr, idx, tgt, d: int, h: int, lp_predicate: str | None = None):
    """KG-TOSA extraction plus materialization of KG'."""
    with tr.span("core.sparql_extract") as sp:
        kgp = A.extract(idx, tgt, d, h, lp_predicate=lp_predicate)
    if tr.traced:
        with tr.span("trace"):
            sp["exchanges"] = count_exchanges(kgp)
    materialize(tr, kgp, sp)
    if tr.traced:
        with tr.span("trace"):
            sp["kgp_triples"] = kgp.triples.count()
    return kgp


def unpersist(state: dict) -> None:
    """Release what a set-up persisted for one task."""
    for key in ("frame", "tgt", "idx", "bundle"):
        if key in state:
            state[key].unpersist()


def encode(tr, kg, frm, task):
    with tr.span("gnn.encoding") as sp:
        if tr.traced:
            enc, _, sp["peak_mb"] = A.measured(A.encode, kg, frm, task)
        else:
            enc = A.encode(kg, frm, task)
    return enc


# ---------------------------------------------------------------------------
# extract-train
# ---------------------------------------------------------------------------

class ExtractTrain:
    name = "extract-train"
    NC = "PV/MAG-42M"
    NC_SF = 0.5
    LP = "CA/YAGO3-10"
    LP_SF = 0.2

    def __init__(self, scale: float):
        self.sf = {self.NC: self.NC_SF * scale, self.LP: self.LP_SF * scale}
        self.state: dict = {}

    def _task_state(self, spark, tr, key: str, seed: int) -> dict:
        t = A.task(key)
        bundle = generate(tr, spark, t.kg_name, self.sf[key], seed)
        return dict(key=key, task=t, sf=self.sf[key], seed=seed, bundle=bundle,
                    idx=index(tr, bundle.kg), tgt=persisted(tr, A.targets(bundle.kg, t)),
                    frame=persisted(tr, A.frame(bundle, t)))

    def setup(self, spark, tr, seed: int) -> None:
        self.state = dict(nc=self._task_state(spark, tr, self.NC, seed),
                          lp=self._task_state(spark, tr, self.LP, seed))

    def prepare_checks(self) -> None:
        nc, lp = self.state["nc"], self.state["lp"]
        kg_pdf, g_pdf = nc["bundle"].kg.triples.toPandas(), nc["tgt"].toPandas()
        nc["expected"] = bgp_digest(kg_pdf, g_pdf, 1, 1, None)
        lp_pdf, pred = lp["bundle"].kg.triples.toPandas(), lp["task"].predicate
        lp["expected"] = bgp_digest(lp_pdf, lp["tgt"].toPandas(), 2, 1, pred)
        lp["bridge"] = digest(lp_pdf[lp_pdf.p == pred])

    def ops(self) -> list[Op]:
        nc, lp = self.state["nc"], self.state["lp"]
        return [
            Op(f"{self.NC} kgp", "kgp", partial(self._run_nc, nc, True), partial(self._check_nc, nc)),
            Op(f"{self.NC} fg", "fg", partial(self._run_nc, nc, False), partial(self._check_nc, nc)),
            Op(f"{self.LP} kgp", "kgp", partial(self._run_lp, lp, True), partial(self._check_lp, lp)),
            Op(f"{self.LP} fg", "fg", partial(self._run_lp, lp, False), partial(self._check_lp, lp)),
        ]

    def warmup(self, tr) -> None:
        """The KG' op of each task: every code path of the cycle (the
        full-graph ops skip only the extraction)."""
        for op in self.ops():
            if op.kind == "kgp":
                op.run(tr)["kgp"].unpersist()

    @staticmethod
    def _run_nc(s, on_kgp: bool, tr) -> dict:
        out = {}
        kg = s["bundle"].kg
        if on_kgp:
            kg = out["kgp"] = extract(tr, s["idx"], s["tgt"], 1, 1)
        enc = encode(tr, kg, s["frame"], s["task"])
        with tr.span("gnn.saint") as sp:
            res, _, out["peak_mb"] = A.measured(A.saint, enc, seed=s["seed"], **A.train_params(s["sf"]))
        history = res["loss_history"]
        sp.update(peak_mb=out["peak_mb"], epochs=len(history),
                  useful_epochs=sum(not math.isnan(x) for x in history))
        with tr.span("gnn.rgcn"):
            A.infer(res["model"])
        out["acc"] = res["accuracy"]["test"]
        out["chance"] = 1.0 / s["task"].n_classes
        return out

    @staticmethod
    def _run_lp(s, on_kgp: bool, tr) -> dict:
        out = {}
        t = s["task"]
        kg = s["bundle"].kg
        if on_kgp:
            kg = out["kgp"] = extract(tr, s["idx"], s["tgt"], 2, 1, t.predicate)
        enc = encode(tr, kg, s["frame"], t)
        with tr.span("gnn.lp") as sp:
            res, _, out["peak_mb"] = A.measured(A.transe, enc, seed=s["seed"])
        sp["peak_mb"] = out["peak_mb"]
        out["hits"] = res["hits@10"]["test"]
        out["chance"] = min(1.0, 10.0 / max(1, len(enc.candidates)))
        return out

    @staticmethod
    def _check_nc(s, out) -> None:
        if "kgp" in out:
            got = out["kgp"].triples.toPandas()
            expect(digest(got) == s["expected"], "d1h1 triples differ from the DuckDB BGP oracle")
        acc = out["acc"]
        expect(math.isfinite(acc), f"test accuracy is not finite: {acc}")
        expect(acc > out["chance"], f"test accuracy {acc:.4f} is not above chance {out['chance']:.4f}")

    @staticmethod
    def _check_lp(s, out) -> None:
        if "kgp" in out:
            got = out["kgp"].triples.toPandas()
            expect(digest(got) == s["expected"], "LP KG' triples differ from the DuckDB BGP oracle")
            expect(digest(got[got.p == s["task"].predicate]) == s["bridge"],
                   "an LP bridge triple is missing")
        # Hits@10 is recorded next to its chance level (10 / candidates) but
        # not required to beat it: on this task TransE scores at chance level.
        expect(0.0 <= out["hits"] <= 1.0, f"Hits@10 is not a finite share: {out['hits']}")

    def teardown(self) -> None:
        for s in self.state.values():
            unpersist(s)
        self.state = {}


# ---------------------------------------------------------------------------
# sampler-quality
# ---------------------------------------------------------------------------

class SamplerQuality:
    name = "sampler-quality"
    TASK = "PV/MAG-42M"
    METHODS = ("d1h1", "RW", "IBS")

    def __init__(self, scale: float):
        self.task = A.task(self.TASK)
        self.sf = {self.TASK: 0.05 * scale}
        self.params = A.t3_params(self.sf[self.TASK])
        self.state: dict = {}

    def setup(self, spark, tr, seed: int) -> None:
        bundle = generate(tr, spark, self.task.kg_name, self.sf[self.TASK], seed)
        self.state = dict(bundle=bundle, idx=index(tr, bundle.kg), seed=seed,
                          tgt=persisted(tr, A.targets(bundle.kg, self.task)))

    def prepare_checks(self) -> None:
        s = self.state
        s["kg_pdf"] = s["bundle"].kg.triples.toPandas()
        s["ids"] = s["bundle"].kg.nodes.select("id").toPandas()
        s["g_pdf"] = s["tgt"].toPandas()
        s["d1h1"] = bgp_digest(s["kg_pdf"], s["g_pdf"], 1, 1, None)

    def ops(self) -> list[Op]:
        return [
            Op(f"{self.TASK} {m}", "kgp" if m == "d1h1" else "sampler",
               partial(self._run, m), partial(self._check, m))
            for m in self.METHODS
        ]

    def warmup(self, tr) -> None:
        """Every extractor once; the indicators, whose queries do not
        depend on the extractor, on the last KG' only."""
        for m in self.METHODS:
            out = self._run(m, tr, indicators=m == self.METHODS[-1])
            out["kgp"].unpersist()

    def _run(self, method: str, tr, indicators: bool = True) -> dict:
        s, p = self.state, self.params
        kg, tgt, seed = s["bundle"].kg, s["tgt"], s["seed"]
        if method == "d1h1":
            kgp = extract(tr, s["idx"], tgt, 1, 1)
        else:
            if method == "IBS":
                with tr.span("core.ibs") as sp:
                    kgp = A.ibs(kg, tgt, bs=p["bs"], k=p["ibs_k"], alpha=p["alpha"],
                                eps=p["eps"], iters=p["iters"], seed=seed)
            else:
                with tr.span("core.walks", walker_steps=p["bs"] * p["walk_h"]) as sp:
                    kgp = A.urw(kg, bs=p["bs"], h=p["walk_h"], seed=seed)
            materialize(tr, kgp, sp)
        out = {"kgp": kgp}
        if not indicators:
            return out
        with tr.span("metrics.sufficiency"):
            out["suff"] = A.sufficiency(kgp, tgt)
        with tr.span("metrics.topology.disconnected"):
            out["discon_pct"] = A.disconnected(kgp, tgt)
        with tr.span("metrics.topology.avg_dist"):
            out["avg_dist"] = A.avg_dist(kgp, tgt)
        with tr.span("metrics.topology.entropy"):
            out["entropy"] = A.entropy(kgp)
        return out

    def _check(self, method: str, out) -> None:
        s = self.state
        kgp = out["kgp"]
        nodes, triples = kgp.nodes.toPandas(), kgp.triples.toPandas()
        expect(nodes.id.is_unique and nodes.id.isin(s["ids"].id).all(), "KG' vertices are not KG vertices")
        endpoints = pd.concat([triples.s, triples.o]).unique()
        if method == "d1h1":
            expect(digest(triples) == s["d1h1"], "d1h1 triples differ from the DuckDB BGP oracle")
            expect(set(endpoints) == set(nodes.id), "d1h1 vertices are not the triple endpoints")
        else:
            induced = duck(
                "SELECT DISTINCT s, p, o FROM t WHERE s IN (SELECT id FROM n) AND o IN (SELECT id FROM n)",
                t=s["kg_pdf"], n=nodes,
            )
            expect(digest(triples) == digest(induced), "KG' is not the subgraph induced by its vertices")
        row = duck(
            """SELECT count(*) AS nodes,
                      count(*) FILTER (WHERE id IN (SELECT id FROM g)) AS vt,
                      count(DISTINCT ntype) AS c,
                      (SELECT count(DISTINCT p) FROM tr) AS r
               FROM n""",
            n=nodes, g=s["g_pdf"], tr=triples,
        ).iloc[0]
        suff = out["suff"]
        expect(
            (suff["nodes"], suff["V_T"], suff["C'"], suff["R'"]) == (row.nodes, row.vt, row.c, row.r)
            and math.isclose(suff["V_T_pct"], 100.0 * row.vt / max(1, row.nodes)),
            f"sufficiency counts differ from DuckDB: {suff} vs {row.to_dict()}",
        )
        expect(0.0 <= out["discon_pct"] <= 100.0, f"target-disconnected % out of range: {out['discon_pct']}")
        expect(math.isfinite(out["entropy"]) and out["entropy"] >= 0.0, f"bad entropy {out['entropy']}")
        expect(math.isnan(out["avg_dist"]) or out["avg_dist"] >= 1.0, f"bad avg distance {out['avg_dist']}")

    def teardown(self) -> None:
        unpersist(self.state)
        self.state = {}


WORKLOADS = {w.name: w for w in (ExtractTrain, SamplerQuality)}
