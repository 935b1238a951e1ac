"""Per-layer metrics from the folded span totals of a traced run.

Times are self time per op (a span's duration minus its child spans), so
the layers add up to the traced op time; counts are calls per op over whole
cycles, which repeat exactly.  ``classify.invariant_fns_s`` is the one
inclusive time: it is what deleting those functions would save.
"""

from __future__ import annotations

KMAX_GROUPS = (5, 6, 7, 8)

# metric name -> (span or counter name, what to read)
PER_OP = {
    "expr.parse_s": ("expr.parse", "self_s"),
    "expr.eval_jet_s": ("expr.eval_jet", "self_s"),
    "expr.eval_jet_calls": ("expr.eval_jet", "calls"),
    "jets.mul_calls": ("jets.mul", "calls"),
    "jets.div_calls": ("jets.div", "calls"),
    "jets.compose_calls": ("jets.compose", "calls"),
    "geometry.christoffel_s": ("geometry.christoffel", "self_s"),
    "tensor.pullback_s": ("tensor.pullback", "self_s"),
    "tensor.pullback_calls": ("tensor.pullback", "calls"),
    "models.frame_s": ("models.frame", "self_s"),
    "families.profile_s": ("families.profile", "self_s"),
    "families.oracle_s": ("families.oracle", "self_s"),
    "classify.invariant_fns_s": ("classify.invariant_fns", "inclusive_s"),
    "classify.self_s": ("classify.verdicts", "self_s"),
    "cli.self_s": ("cli.main", "self_s"),
}


def per_layer(res: dict) -> dict:
    totals = res["totals"]
    ops = res["traced_ops"]

    def total(name: str, kind: str) -> float:
        return totals[kind].get(name, 0)

    def seconds(value: float) -> dict:
        return {"value": value, "unit": "s/op"}

    def count(value: float, unit: str = "count/op") -> dict:
        return {"value": value, "unit": unit}

    out = {}
    for metric, (name, kind) in PER_OP.items():
        value = total(name, kind) / ops
        out[metric] = count(value) if kind == "calls" else seconds(value)

    seq = [k for k in totals["calls"] if k.startswith("geometry.sequence.k")]
    seq_calls = sum(total(k, "calls") for k in seq)
    out["geometry.sequence_self_s"] = seconds(sum(total(k, "self_s") for k in seq) / ops)
    out["geometry.sequence_calls"] = count(seq_calls / ops)
    for k in KMAX_GROUPS:
        out[f"geometry.sequence_k{k}_s"] = seconds(total(f"geometry.sequence.k{k}", "self_s") / ops)
    out["geometry.sequence_calls_per_point"] = count(seq_calls / res["traced_points"], "count/point")
    out["classify.points"] = count(res["traced_points"] / ops, "points/op")

    out["cli.import_s"] = {"value": res["import_s"], "unit": "s"}
    out["cli.process_s"] = {"value": res["process_s"], "unit": "s"}
    out["trace.throughput_traced_per_s"] = {"value": res["throughput_traced_per_s"], "unit": "1/s"}
    out["trace.throughput_untraced_per_s"] = {"value": res["throughput_untraced_per_s"], "unit": "1/s"}
    return out
