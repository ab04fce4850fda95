"""The benchmark's only door into ``repro``.

Every call the benchmark makes into the program goes through a function
here, and only public entry points are used, so a change that reshapes
one of these APIs is absorbed in this one file. Each function is named
after the layer (``repro`` module) whose cost it carries; the tracer uses
those layer names as span names.
"""
from __future__ import annotations

from repro.bench import measure, tables
from repro.core.ibs import ibs_sample
from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.core.urw import urw_sample
from repro.gnn.encoding import encode_lp, encode_nc
from repro.gnn.lp import train_transe
from repro.gnn.saint import train_saint
from repro.kg import generator
from repro.kg.partition import build_index
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import (
    avg_distance_to_targets,
    neighbour_type_entropy,
    target_disconnected_pct,
)
from repro.tasks.defs import TASKS, target_vertices
from repro.tasks.splits import lp_frame, nc_frame

measured = measure.measured
t3_params = tables.t3_params
# Table IV's SAINT hyper-parameters; the benchmark trains exactly as
# ``tables.table4`` does, so it reads them from the same place.
train_params = tables._train_params


def task(key: str):
    return TASKS[key]


def generate(kg_name: str, spark, *, sf: float, seed: int):
    """``kg.generator``: a persisted KG bundle."""
    return generator.generate(kg_name, spark, sf=sf, seed=seed)


def index(kg):
    """``kg.partition``: the persisted triple layouts."""
    return build_index(kg)


def targets(kg, t):
    """``tasks``: the target vertex frame V_T."""
    return target_vertices(kg, t)


def frame(bundle, t):
    """``tasks``: the split supervision frame of an NC or LP task."""
    return nc_frame(bundle, t) if t.tt == "NC" else lp_frame(bundle, t)


def extract(idx, tgt, d: int, h: int, *, lp_predicate: str | None = None):
    """``core.sparql_extract``: KG' for pattern ``(d, h)`` (lazy triples)."""
    return extract_tosg(idx, tgt, TOSGPattern(d, h), lp_predicate=lp_predicate)


def urw(kg, *, bs: int, h: int, seed: int):
    """``core.walks`` via URW: roots and walks run eagerly, the induced
    subgraph is left lazy for :func:`materialize`."""
    return urw_sample(kg, bs=bs, h=h, seed=seed)


def ibs(kg, tgt, *, bs: int, k: int, alpha: float, eps: float, iters: int, seed: int):
    """``core.ibs`` (Algorithm 2)."""
    return ibs_sample(kg, tgt, bs=bs, k=k, alpha=alpha, eps=eps, iters=iters, seed=seed)


def materialize_kg(kgp):
    """``core.subgraph``: persist and evaluate a lazy KG'."""
    return materialize(kgp)


def sufficiency(kgp, tgt) -> dict:
    """``metrics.sufficiency``."""
    return sufficiency_stats(kgp, tgt)


def disconnected(kgp, tgt) -> float:
    """``metrics.topology`` target-disconnected %."""
    return target_disconnected_pct(kgp, tgt)


def avg_dist(kgp, tgt) -> float:
    """``metrics.topology`` average distance to targets."""
    return avg_distance_to_targets(kgp, tgt)


def entropy(kgp) -> float:
    """``metrics.topology`` neighbour-type entropy (Eq. 2)."""
    return neighbour_type_entropy(kgp)


def encode(kgp, frm, t):
    """``gnn.encoding``: triples to adjacency arrays (collects to the driver)."""
    if t.tt == "NC":
        return encode_nc(kgp, frm, n_classes=t.n_classes)
    return encode_lp(kgp, t.predicate, frm)


def saint(enc, *, seed: int, **params) -> dict:
    """``gnn.saint``: GraphSAINT-RGCN training, URW sampler as in Table IV."""
    return train_saint(enc, sampler="urw", seed=seed, **params)


def infer(model):
    """``gnn.rgcn``: full-graph inference."""
    return model.forward()


def transe(enc, *, seed: int) -> dict:
    """``gnn.lp``: TransE training plus filtered Hits@10."""
    return train_transe(enc, seed=seed)
