"""Layer ledger: reduces a traced run's spans to self time per layer.

A span's self time is its duration minus the part of its interval that
its child spans cover. A span may carry a `split`: seconds of its self
time that a registry delta attributes to another layer (the Bellman
sweeps inside `analyze`, the server's share of a client request); the
split moves that much self time, at most all of it, to the named layer.

The ledger covers every root span except those marked `ledger: 0` (the
open-loop phase, which idles between arrivals by design). Root spans
belong to the `bench` layer, so their self time is the benchmark's own
glue; `coverage_pct` is the share of traced wall time that the spans
around library calls account for.
"""

from collections import defaultdict

LAYERS = ("bench", "selfish", "mdp", "analysis", "engine", "serve", "transport")
COVERAGE_FLOOR_PCT = 98.0


def _covered(span, children):
    """Length of the union of the children's intervals inside `span`."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
    )
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def reduce(spans):
    """Returns {"wall_s", "coverage_pct", "self_s": {layer: s},
    "share_pct": {layer: %}} over the ledger's root spans."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    self_s = defaultdict(float, dict.fromkeys(LAYERS, 0.0))
    wall = 0.0
    for root in children[-1]:
        if root["attrs"].get("ledger", 1) == 0:
            continue
        wall += root["end"] - root["start"]
        stack = [root]
        while stack:
            span = stack.pop()
            kids = children[span["id"]]
            stack.extend(kids)
            own = max(0.0, span["end"] - span["start"] - _covered(span, kids))
            for layer, seconds in span["split"].items():
                moved = min(max(0.0, seconds), own)
                self_s[layer] += moved
                own -= moved
            self_s[span["layer"]] += own
    unknown = set(self_s) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans name unknown layers: {sorted(unknown)}")
    share = {k: (100.0 * v / wall if wall > 0 else 0.0) for k, v in self_s.items()}
    coverage = 100.0 - share["bench"] if wall > 0 else 0.0
    return {"wall_s": wall, "coverage_pct": coverage, "self_s": self_s,
            "share_pct": share}


def metrics(ledger):
    """The ledger as per-layer metrics: {name: (value, unit)}."""
    out = {"bench.ledger_coverage_pct": (ledger["coverage_pct"], "%"),
           "bench.traced_wall_s": (ledger["wall_s"], "s")}
    for layer in LAYERS:
        out[f"ledger.{layer}.self_s"] = (ledger["self_s"][layer], "s")
        out[f"ledger.{layer}.share_pct"] = (ledger["share_pct"][layer], "%")
    return out
