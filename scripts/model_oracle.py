#!/usr/bin/env python3
"""Refactor oracle: diff two `repro bench` documents on every model field.

    scripts/model_oracle.py OLD.json NEW.json

Both files must be gc-bench-coloring documents generated with the same
settings (scale, seed, device counts, --quality). Rows are keyed by
(colorer, dataset, devices) and pareto points by (colorer, dataset).
Every deterministic field is compared exactly: colors, coloring
identity, verification, halo traffic, conflict rounds, and each side's
model_ms, thread_executions, launches, graph_replays and iterations.
Host wall-clock fields are ignored — they vary between runs.

Exits 0 when the documents agree, 1 on the first difference (printed),
and 2 on a usage or parse error.
"""

import json
import sys

HEADER = ("schema", "scale", "seed", "devices", "quality")
ROW = (
    "vertices",
    "edges",
    "colors",
    "identical_coloring",
    "verified",
    "halo_bytes",
    "halo_bytes_delta",
    "overlap_ratio",
    "sharded_efficiency",
    "conflict_rounds",
)
SIDE = (
    "model_ms",
    "thread_executions",
    "launches",
    "graph_replays",
    "launch_overhead_ms",
    "iterations",
)
PARETO = (
    "vertices",
    "colors",
    "model_ms",
    "thread_executions",
    "iterations",
    "colors_before",
    "colors_after",
    "reduction_passes",
    "verified",
)


def fail(msg):
    print(f"model_oracle: DIFF {msg}")
    sys.exit(1)


def keyed(doc, array, key_fields, path):
    out = {}
    for i, row in enumerate(doc.get(array, [])):
        key = tuple(row.get(k) for k in key_fields)
        if key in out:
            fail(f"{path}: duplicate {array} key {key} at index {i}")
        out[key] = row
    return out


def compare_keyed(old, new, array, key_fields, fields, sides):
    a = keyed(old, array, key_fields, "OLD")
    b = keyed(new, array, key_fields, "NEW")
    for key in a:
        if key not in b:
            fail(f"{array} {key}: missing from NEW")
    for key in b:
        if key not in a:
            fail(f"{array} {key}: missing from OLD")
    for key, ra in a.items():
        rb = b[key]
        for f in fields:
            if ra.get(f) != rb.get(f):
                fail(f"{array} {key}.{f}: {ra.get(f)!r} -> {rb.get(f)!r}")
        for side in sides:
            sa, sb = ra.get(side, {}), rb.get(side, {})
            for f in SIDE:
                if sa.get(f) != sb.get(f):
                    fail(f"{array} {key}.{side}.{f}: {sa.get(f)!r} -> {sb.get(f)!r}")
    return len(a)


def main(argv):
    if len(argv) != 3:
        print("usage: model_oracle.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        old, new = (json.load(open(p)) for p in argv[1:])
    except (OSError, ValueError) as e:
        print(f"model_oracle: {e}", file=sys.stderr)
        return 2
    for f in HEADER:
        if old.get(f) != new.get(f):
            fail(f"header {f}: {old.get(f)!r} -> {new.get(f)!r}")
    rows = compare_keyed(
        old, new, "rows", ("colorer", "dataset", "devices"), ROW, ("before", "after")
    )
    pareto = compare_keyed(old, new, "pareto", ("colorer", "dataset"), PARETO, ())
    print(f"model_oracle: OK ({rows} rows, {pareto} pareto points identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
