"""Self-test of the benchmark code on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that one seed always generates byte-identical inputs and different
seeds different ones, that every workload emits every named metric with its
unit in both modes, and that the correctness gates reject a wrong core map.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import math
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def traffic(seed: int) -> bytes:
    from perfbench import inputs

    graph = inputs.serve_graph(seed, "tiny")
    schedule = inputs.read_schedule(graph, seed, 50, 3)
    stream, _final = inputs.update_stream(graph, seed, 10)
    return inputs.request_bytes(schedule, stream)


def test_inputs_are_seeded() -> None:
    from perfbench import inputs

    makers = {
        "social graph": lambda s: inputs.edge_bytes(inputs.social_graph(s, "tiny")),
        "serve graph": lambda s: inputs.edge_bytes(inputs.serve_graph(s, "tiny")),
        "serve traffic": traffic,
    }
    for name, make in makers.items():
        check(make(7) == make(7), f"{name}: one seed gives identical bytes")
        check(make(7) != make(8), f"{name}: two seeds give different bytes")


def test_gates_reject_wrong_cores() -> None:
    from perfbench import decompose, inputs, serve

    graph = inputs.serve_graph(1, "tiny")
    cores = {h: inputs.reference_cores(graph, h) for h in (1, serve.H)}
    wrong = dict(cores[serve.H])
    victim = min(wrong)
    wrong[victim] += 1
    right_map = sorted(cores[serve.H].items())
    wrong_map = sorted(wrong.items())

    check(decompose.count_wrong([list(p) for p in right_map], 0, 5, right_map)
          == 0, "decompose gate accepts the reference map")
    check(decompose.count_wrong([list(p) for p in wrong_map], 0, 5, right_map)
          == 5, "decompose gate rejects a wrong first map")
    check(decompose.count_wrong([list(p) for p in right_map], 2, 5, right_map)
          == 2, "decompose gate counts decompositions that drifted")

    checker = serve.Checker(cores, static=True)
    good = {"cores": [[v, c] for v, c in right_map]}
    bad = {"cores": [[v, c] for v, c in wrong_map]}
    check(checker.ok("/cores", good), "serve gate accepts the reference map")
    check(not checker.ok("/cores", bad), "serve gate rejects a wrong map")
    check(not checker.ok(f"/core_number?v={victim}",
                         {"core": wrong[victim]}),
          "serve gate rejects a wrong point answer")
    check(serve.final_state_ok(good["cores"], cores[serve.H])
          and not serve.final_state_ok(bad["cores"], cores[serve.H]),
          "churn final-state gate rejects a wrong map")


def test_every_metric_is_emitted() -> None:
    from perfbench import run

    measured = set()
    for workload in run.workloads():
        for trace in (False, True):
            record = run.run_workload(workload, 3, 0.6, trace, size="tiny")
            expected = run.units(trace)
            metrics = record["metrics"]
            if trace:
                measured.update(record["measured"])
            check(set(metrics) == set(expected)
                  and all(metrics[name]["unit"] == unit
                          for name, unit in expected.items())
                  and all(isinstance(m["value"], float)
                          and math.isfinite(m["value"])
                          for m in metrics.values()),
                  f"{workload} trace={int(trace)}: every metric with its unit")
            check(record["correct"] and record["failed"] == 0
                  and record["attempted"] >= 1,
                  f"{workload} trace={int(trace)}: every answer correct")
    check(measured == set(run.units(True)),
          "every per-layer metric is measured by some workload")


def main() -> int:
    common.import_library()
    test_inputs_are_seeded()
    test_gates_reject_wrong_cores()
    test_every_metric_is_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
