"""
Paired benchmark runs of two checkouts, and the rule a claimed gain must meet.

    python tools/pairs.py --parent ../parent --change . \
        --workload verify-certificates --seeds 41-50 --seconds 30

Runs `bench/run.py --trace 0` from each checkout (the command and its
benchmark code come from that checkout) once per seed, in pairs: the parent
runs first in odd pairs and the change first in even ones. Each run's last
stdout line is the benchmark's JSON result. For every workload and
end-to-end metric it prints each side's median and quartiles, the change's
relative difference, the pairs the change wins (ties count for neither),
whether that difference stays within the metric's bound from
BENCHMARK.json, and whether a gain may be claimed: the change wins at least
nine tenths of the pairs and the medians differ, in the better direction, by
more than the distance between the parent's quartiles. Runs go one at a
time. Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    """'41-50' or '3,5,9' (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def last_result(stdout: str) -> dict:
    """The benchmark's result object: the last non-blank line of its stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> list[dict]:
    """One row per metric of ``metrics`` ({name: {"better": "lower"|"higher",
    "bound": fraction}}) from (parent result, change result) pairs of one
    workload, each result as bench/run.py prints it."""
    rows = []
    for name, spec in metrics.items():
        sign = 1 if spec.get("better", "lower") == "lower" else -1
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not got:
            continue
        parent = quartiles([p for p, _ in got])
        change = quartiles([c for _, c in got])
        wins = sum(sign * (p - c) > 0 for p, c in got)
        gain = sign * (parent[1] - change[1])
        rel = (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        rows.append({
            "metric": name, "pairs": len(got), "parent": parent, "change": change,
            "relative": rel, "wins": wins,
            "within_bound": sign * rel <= spec.get("bound", float("inf")),
            "gain_holds": 10 * wins >= 9 * len(got) and gain > parent[2] - parent[0],
        })
    return rows


def render(workload: str, rows: list[dict]) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    out = [f"{workload}: median [first quartile, third quartile]",
           f"  {'metric':14} {'parent':28} {'change':28} {'change/parent':>13} "
           f"{'wins':>6}  within bound  gain holds"]
    for r in rows:
        out.append(f"  {r['metric']:14} {q(r['parent']):28} {q(r['change']):28} "
                   f"{r['relative']:>+12.1%} {r['wins']:>3}/{r['pairs']:<2}  "
                   f"{'yes' if r['within_bound'] else 'NO':12}  "
                   f"{'yes' if r['gain_holds'] else 'no'}")
    return "\n".join(out)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return last_result(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change checkout")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seeds", required=True, help="e.g. 41-50 or 3,5,9; one pair each")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(seeds_of(args.seeds), start=1):
            order = [("parent", args.parent), ("change", args.change)]
            if k % 2 == 0:
                order.reverse()
            result = {side: run_bench(path, workload, seed, args.seconds)
                      for side, path in order}
            for side, res in result.items():
                if res.get("correct") is not True or res.get("failed"):
                    ok = False
                    print(f"{workload} seed {seed} {side}: correct={res.get('correct')} "
                          f"failed={res.get('failed')}", file=sys.stderr)
            pairs.append((result["parent"], result["change"]))
            print(f"pair {k} seed {seed} ({order[0][0]} first): " + ", ".join(
                f"{name} {result['parent']['metrics'][name]['value']:.4g} -> "
                f"{result['change']['metrics'][name]['value']:.4g}"
                for name in metrics if name in result["parent"]["metrics"]), flush=True)
        print(render(workload, summarize(pairs, metrics)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
