"""Benchmark for avdoa: one workload per run, end to end or traced by layer.

    python3 benchmark/run.py --workload simulate|train|grid --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  ``setup_s`` is the time from the start of this script through
importing avdoa and a first tiny scene through every command (paid once
per process), plus the median of three set-up passes, each a tiny scene
again and then the workload's inputs built into a fresh directory.  The
timed phase then repeats whole rounds of the workload's commands until
``--seconds`` have passed, and the outputs are checked.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI commands of the timed phase) and the metrics named in
BENCHMARK.json -- the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Traced runs also write their spans to
``.bench_work/traces/``.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["simulate", "train", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def layer_metrics(tracer, workload, specs):
    """Per-round medians of each traced value ("cli" sums every cli.* span)."""
    table = tracer.per_round()
    for rnd, layers in workload.layer_values(tracer).items():
        for layer, values in layers.items():
            for key, value in values.items():
                table[rnd][layer][key] = value
    rounds = sorted(table)
    metrics = {}
    for spec in specs:
        layer, key = spec["name"].rsplit(".", 1)
        per_round = []
        for rnd in rounds:
            rows = [row for name, row in table[rnd].items()
                    if name == layer or (layer == "cli" and name.startswith("cli."))]
            per_round.append(sum((row.get(key, 0.0) for row in rows), 0.0))
        value = max(per_round) if key == "rss_hwm_mb" else statistics.median(per_round)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def run(args, run_dir):
    import avdoa
    import avdoa.cli  # noqa: F401
    import oracles
    import workloads
    from spans import Tracer

    end_to_end, per_layer = metric_specs()

    # set-up: imports and first calls once, then passes that can repeat
    checked = workloads.checked_cli(avdoa)
    workloads.warm_up(f"{run_dir}/warm", checked)
    startup_s = time.perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, checked)
    passes = []
    for r in range(SETUP_REPEATS):
        shutil.rmtree(f"{run_dir}/input{r - 1}", ignore_errors=True)
        start = time.perf_counter()
        workloads.warm_up(f"{run_dir}/input{r}/warm", checked)
        workload.build(f"{run_dir}/input{r}")
        passes.append(time.perf_counter() - start)
    setup_s = startup_s + statistics.median(passes)

    # timed phase: whole rounds until --seconds have passed
    counts = {"attempted": 0, "failed": 0}
    quiet = workloads.quiet_cli(avdoa)

    def counted(argv):
        counts["attempted"] += 1
        if quiet(argv) != 0:
            counts["failed"] += 1

    workload.cli = counted
    tracer = Tracer()
    if args.trace:
        tracer.install(avdoa)
    rounds = []
    problems = []
    first = f"{run_dir}/round0"
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            out = f"{run_dir}/round{len(rounds)}"
            os.makedirs(out)
            tracer.round = len(rounds)
            wall, cpu = time.perf_counter(), time.process_time()
            workload.run_round(out)
            rounds.append((time.perf_counter() - wall, time.process_time() - cpu))
            if not counts["failed"] and len(rounds) > 1:
                if workload.fingerprint(out) != workload.fingerprint(first):
                    problems.append(f"round {len(rounds) - 1} outputs differ from round 0")
                shutil.rmtree(out)
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_s = time.perf_counter() - start

    if counts["failed"]:
        problems.append(f"{counts['failed']} of {counts['attempted']} commands failed")
    else:
        try:
            workload.check(first, avdoa)
        except oracles.CheckFailed as exc:
            problems.append(str(exc))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: start-up {startup_s:.1f} s, set-up passes {sum(passes):.1f} s, "
          f"rounds {' '.join(f'{w:.2f}' for w, _ in rounds)} s, checks "
          f"{time.perf_counter() - start - timed_s:.1f} s", file=sys.stderr)

    wall_s = statistics.median(w for w, _ in rounds)
    if args.trace:
        metrics = layer_metrics(tracer, workload, per_layer)
        tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"), {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "round_wall_s": [w for w, _ in rounds], "metrics": metrics,
        })
    else:
        acc_pct, mae_deg = workload.quality(first) if not counts["failed"] else (0.0, 0.0)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "frames_per_s": workload.work_per_round() / wall_s,
            "cpu_s": statistics.median(c for _, c in rounds),
            "peak_rss_mb": peak_rss_mb,
            "acc_pct": acc_pct,
            "mae_deg": mae_deg,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    return {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "avdoa", "__init__.py")):
        print(f"error: no avdoa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
