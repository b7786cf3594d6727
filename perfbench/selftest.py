#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute and a half):

    python3 perfbench/selftest.py

Checks that
  * every program the benchmark generates terminates, traps nothing, and
    prints the same at Classical, at Vliw and in the interpreter;
  * the program declares exactly the metrics of BENCHMARK.json, with the
    same units and directions, and every run emits each one of its kind;
  * a short run, made twice, repeats every exact metric bit for bit, end
    to end and per layer, and service_mix's per-layer counts are the same
    for two seeds;
  * in service_mix, op_p50_ms takes its weight from the hit cluster and
    op_p90_ms from the miss cluster: the slowest tenth of hits is faster
    than the fastest tenth of misses, and the hit ratio leaves four
    standard deviations of each Harrell-Davis weight window on one side
    (checked on the one-round short run, whose windows are the widest);
  * a planted wrong reference shows in pass_ratio and failed, and the run
    still exits 0 with a result;
  * run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

import run

WORKLOADS = ["paper_matrix", "big_loops", "service_mix"]
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def declared():
    """{name: (kind, unit, better, exact)} from the program."""
    out = subprocess.run([EXE, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    table = {}
    for line in out.splitlines():
        kind, name, unit, better, exact = line.split()
        table[name] = (kind, unit, better, exact == "exact")
    return table


def result(workload, trace, seed=1, extra=("--short",)):
    """The run's result object."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
           "20", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       env=run.bench_env(), cwd=run.ROOT)
    check(p.returncode == 0, f"{' '.join(cmd[1:])} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    global EXE
    EXE = run.build()
    p = subprocess.run([EXE, "--check-programs"], capture_output=True, text=True)
    print(p.stdout, end="")
    check(p.returncode == 0, "a generated program failed --check-programs")
    table = declared()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: (kind, m["unit"], m["better"]) for m in bench[kind]}
        have = {n: d[:3] for n, d in table.items() if d[0] == kind}
        check(want == have, f"{kind} metrics of BENCHMARK.json and the program differ")

    for w in WORKLOADS:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            a, b = result(w, trace), result(w, trace)
            for r in (a, b):
                check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                      f"{w} trace={trace}: not correct")
                units = {n: m["unit"] for n, m in r["metrics"].items()}
                check(units == {n: d[1] for n, d in table.items() if d[0] == kind},
                      f"{w} trace={trace}: emitted metrics or units differ")
            for n, (k, _, _, exact) in table.items():
                if k == kind and exact:
                    check(a["metrics"][n]["value"] == b["metrics"][n]["value"],
                          f"{w} {n} differs between two identical runs")
            if not trace:
                requests = a["attempted"]
            if w == "service_mix" and trace:
                m = {n: v["value"] for n, v in a["metrics"].items()}
                other = result(w, 1, seed=2)["metrics"]
                for n in m:
                    if n.startswith("service.cache.") or n == "service.hit_ratio":
                        check(other[n]["value"] == m[n],
                              f"service_mix {n} differs between seeds 1 and 2")
                hits = m["service.hit_ratio"]
                check(0.5 + 4 * (0.25 / requests) ** 0.5 < hits <
                      0.9 - 4 * (0.09 / requests) ** 0.5,
                      "service_mix hit ratio leaves p50 or p90 on a cluster edge")
                check(m["service.hit.p90_ms"] < m["service.miss.p10_ms"],
                      "service_mix hit and miss latencies overlap")

        planted = result(w, 0, extra=["--short", "--plant-wrong-reference"])
        check(not planted["correct"] and planted["failed"] > 0 and
              planted["metrics"]["pass_ratio"]["value"] < 1,
              f"{w}: planted wrong reference not seen in pass_ratio")

    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "big_loops", "--seed", "1", "--seconds", "20",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and not p.stdout.strip(),
          "run.py without the repository's sources did not fail cleanly")
    shutil.rmtree(bare)

    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
