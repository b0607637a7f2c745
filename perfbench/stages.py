"""Per-stage split of single constructions, from one traced pass.

    python3 perfbench/stages.py      # about three minutes on 2 CPUs

Times halving r=3, halving r=4 and phi on F_17 once each, with every public
call that the construction makes internally replicated and timed on its
own (see spans.py), and prints each stage's seconds and share of the call
as a markdown table.  halving r=4 takes too long for a benchmark run, so
this is where its split is measured.
"""

from __future__ import annotations

from collections import defaultdict

import run

run.import_bhmat()

import workloads  # noqa: E402
from bhmat import fourier  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> None:
    state: dict = {}
    ops = [
        workloads.halving_op(3, state),
        workloads.halving_op(4, state),
        workloads.family_op("phi F_17 family", 16, state, doubled=False),
        workloads.phi_op("phi F_17", fourier(17), "phi F_17 family", state),
    ]
    tracer = Tracer()
    run.run_pass(ops, {}, tracer)
    calls = [s for s in tracer.spans if s.name == "scarpis.call"]
    labels = [op.name for op in ops if op.kind == "construct"]
    stages: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s in tracer.spans:
        if s.replicates is not None:
            stages[s.name][s.replicates] += s.duration
    print("| stage | " + " | ".join(labels) + " |")
    print("|---|" + "---|" * len(labels))
    print("| whole call (`scarpis.call_s`) | " + " | ".join(f"{c.duration:.3f} s" for c in calls) + " |")
    for name, per_call in sorted(stages.items(), key=lambda kv: -sum(kv[1].values())):
        cells = [f"{per_call[c.id]:.3f} s ({100 * per_call[c.id] / c.duration:.1f}%)" if c.id in per_call
                 else "—" for c in calls]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    selfs = [c.duration - sum(per_call.get(c.id, 0.0) for per_call in stages.values()) for c in calls]
    print("| assembly (`scarpis.self_s`) | "
          + " | ".join(f"{v:.3f} s ({100 * v / c.duration:.1f}%)" for v, c in zip(selfs, calls)) + " |")


if __name__ == "__main__":
    main()
