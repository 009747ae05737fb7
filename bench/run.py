"""
Benchmark of the cherednik library and CLI.

    python3 bench/run.py --workload dirac-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. One process, one operation at a time (a closed
loop with one client). A round is the workload's fixed list of operations;
rounds repeat until --seconds have passed, and the last one always runs to
its end. Every operation starts with the package's lru caches cleared, as
in a fresh CLI invocation. Outputs are checked outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, starting and ending untraced, prints the per-layer metrics of
the traced ones and the tracing overhead, and writes the spans to
bench/out/. The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SPAWNS = 11

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

CALLS = ["modules.membership", "modules.nu_vector", "weights.evaluate",
         "weights.weyl_dim_formal", "modules.tensor_with_spin", "polynomials.xi_to_w",
         "enveloping.r_matrix"]
INCLUSIVE = ["modules.membership", "modules.nu_vector", "weights.evaluate",
             "modules.L_decomposition", "modules.tensor_with_spin",
             "modules.guaranteed_classes", "polynomials.xi_to_w", "enveloping.r_matrix",
             "enveloping.kappa_of", "enveloping.jacobi_check",
             "enveloping.higher_jacobi_checks", "enveloping.h_linearity_check",
             "clifford", "rank_one.oracle_cohomology"]
SIZES = ["modules.box_weights", "modules.spin_classes", "modules.cohomology_classes",
         "cli.output_bytes", "verify.checks", "enveloping.normalize.hits",
         "enveloping.normalize.misses"]
# per-layer metric -> unit
PER_LAYER = {f"{n}.calls": "count" for n in CALLS}
PER_LAYER.update({f"{n}.s": "s" for n in INCLUSIVE})
PER_LAYER.update({"modules.dirac_cohomology.s": "s", "cli.self_s": "s",
                  "rank_one.matrix_rows": "count", "trace.overhead_s": "s"})
PER_LAYER.update({n: "bytes" if n == "cli.output_bytes" else "count" for n in SIZES})


def setup_seconds() -> float:
    """Median over fresh interpreters of start-up through `import cherednik.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import cherednik.cli"], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.layers: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_round(ops, faults, caches, tracer) -> Round:
    from cherednik import enveloping
    normalize = getattr(enveloping, "_normalize", None)
    r = Round(traced=tracer is not None)
    if tracer:
        tracer.reset_round()
    for op in ops:
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        if tracer:
            tracer.op += 1
            tracer.patch()
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the program raised: the operation failed
            r.failures.append(f"{op.label}: raised {exc!r}")
            continue
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.unpatch()
        r.times.append(elapsed)
        if normalize is not None:
            info = normalize.cache_info()
            r.sizes["enveloping.normalize.hits"] += info.hits
            r.sizes["enveloping.normalize.misses"] += info.misses
        problems, sizes = op.inspect(result)
        if problems:
            r.wrong.append(f"{op.label}: {'; '.join(problems)}")
        for key, value in sizes.items():
            r.sizes[key] += value
        if isinstance(result, tuple) and isinstance(result[-1], str):
            r.sizes["cli.output_bytes"] += len(result[-1].encode())
    for fault in faults:
        problems = fault.run()
        if problems:
            r.failures.append(f"{fault.label}: {'; '.join(problems)}")
    if tracer:
        layers = {f"{n}.calls": tracer.calls[n] for n in CALLS}
        layers.update({f"{n}.s": tracer.inclusive[n] for n in INCLUSIVE})
        layers["modules.dirac_cohomology.s"] = tracer.self_time["modules.dirac_cohomology"]
        layers["cli.self_s"] = tracer.self_time["cli.main"]
        layers["rank_one.matrix_rows"] = tracer.matrix_rows
        layers.update({n: r.sizes.get(n, 0) for n in SIZES})
        r.layers = layers
    return r


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dirac-grid", "classify-roots", "verify-certificates"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "cherednik" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cherednik'}", file=sys.stderr)
        return 2
    setup = setup_seconds()
    sys.path[:0] = [str(SRC), str(HERE)]
    import cherednik
    if Path(cherednik.__file__).resolve().parent != (SRC / "cherednik").resolve():
        print(f"error: imported cherednik from {cherednik.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    ops, faults, after = workloads.build(args.workload, args.seed, str(SRC))
    for op in ops:
        op.prepare()
    # The benchmark's own objects go to the permanent generation, so the
    # collector's passes during an operation see only the program's objects.
    gc.collect()
    gc.freeze()
    caches = list({id(v): v for mod in spans.package_modules() for v in vars(mod).values()
                   if hasattr(v, "cache_clear") and hasattr(v, "cache_info")}.values())
    tracer = spans.Tracer() if args.trace else None
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ops, faults, caches, tracer if traced else None))
        # A traced run ends on an untraced round, so every traced round has an
        # untraced round on each side.
        if perf_counter() - start >= args.seconds and (
                tracer is None or (len(rounds) >= 3 and len(rounds) % 2 == 1)):
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    late = after()

    plain = [r for r in rounds if not r.traced]
    attempted = len(rounds) * (len(ops) + len(faults))
    failed = sum(len(r.failures) + len(r.wrong) for r in rounds) + len(rounds) * len(late)
    wrong = [w for r in rounds for w in r.wrong] + [f"{k}: {v}" for k, v in late.items()]
    for line in sorted(set(wrong + [f for r in rounds for f in r.failures])):
        print(f"FAILED {line}", file=sys.stderr)

    if tracer is None:
        samples = [t for r in plain for t in r.times]
        deciles = statistics.quantiles(samples, n=10)
        values = {"setup_s": setup, "wall_s": statistics.median(r.wall for r in plain),
                  "op_p50_ms": deciles[4] * 1e3, "op_p90_ms": deciles[8] * 1e3,
                  "peak_rss_mib": peak_mib}
        units = END_TO_END
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
              f"{len(samples)} timed operations")
    else:
        traced_rounds = [r for r in rounds if r.traced]
        values = {name: statistics.median_low(r.layers[name] for r in traced_rounds)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        walls = [r.wall for r in rounds]
        values["trace.overhead_s"] = statistics.median(
            walls[k] - (walls[k - 1] + walls[k + 1]) / 2 for k in range(1, len(walls), 2))
        units = PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        if tracer.missing:
            print(f"untraced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
        print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
              f"{len(traced_rounds)} traced rounds, {len(tracer.spans)} spans")
    for name, unit in units.items():
        print(f"  {name:36} {values[name]:>16.6g} {unit}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
