"""Benchmark of the staircase library and CLI.

    python3 perfbench/run.py --workload family-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. Workloads (see perfbench/README.md):

  family-cli     the paper's family through fresh `python -m staircase.cli`
                 processes, one request at a time
  milnor-germs   Milnor numbers of dense gradient germs, in process
  random-ideals  engine cross-checks on sparse random ideals, in process

One pass runs every case of the workload once, in a closed loop with one
client. Passes repeat until `--seconds` have passed (at least two). Each
case's latency is its median over passes; `wall_s` is the sum of those, an
estimate of one pass that a slow moment of a shared machine moves little.
A case that runs past the workload's deadline is stopped and charged the
deadline; later passes charge it again without rerunning it. Every answer
is checked; a wrong one prints `"correct": false` and exits 1.

With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1` untraced and traced passes alternate, everything runs in
process (the CLI through `cli.main(argv)`), and the last line holds the
per-layer metrics of the traced passes, which rerun the cases that hit the
deadline so that the layer times cover them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
WORKLOADS = ("family-cli", "milnor-germs", "random-ideals")


class WrongAnswer(Exception):
    pass


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline()


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import staircase.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import staircase.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cli_in_subprocess(workdir: str, deadline: float):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def call(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "staircase.cli", *argv], cwd=workdir,
            env=env, capture_output=True, text=True, timeout=deadline)
        return proc.returncode, proc.stdout
    return call


def cli_in_process(workdir: str):
    from staircase import cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def cli_cases(requests, call):
    from staircase import PoolLimitExceeded

    def case(argv, check):
        def run():
            code, out = call(argv)
            if code == 3:  # the CLI's resource-ceiling exit, counted alike
                raise PoolLimitExceeded(0)
            if code != 0:
                raise WrongAnswer(f"exit code {code}")
            return out
        return " ".join(argv), run, check
    return [case(argv, check) for argv, check in requests]


def run_pass(cases, deadline, stopped, seen, recorder=None):
    """One pass over the cases. Returns per-case latencies and failures.

    `stopped` holds the cases that ran past the deadline in an earlier pass;
    `seen` maps each case to its first answer, which later passes must
    repeat exactly.
    """
    from staircase import PoolLimitExceeded
    latencies, ceiling = [], 0
    for index, (label, thunk, check) in enumerate(cases):
        if index in stopped:
            latencies.append(deadline)
            continue
        if recorder is not None:
            recorder.start_case()
        status = "ok"
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            answer = thunk()
        except (_Deadline, subprocess.TimeoutExpired):
            status = "timeout"
        except PoolLimitExceeded:
            status = "ceiling"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        if status == "timeout":
            stopped.add(index)
            latencies.append(deadline)
            continue
        latencies.append(min(elapsed, deadline))
        if status == "ceiling":
            ceiling += 1
            continue
        problem = check(answer)
        if problem is None and index in seen and seen[index] != answer:
            problem = "answer differs from the previous pass"
        if problem is not None:
            raise WrongAnswer(f"{label}: {problem}")
        seen.setdefault(index, answer)
        if recorder is not None:
            recorder.commit_case()
    return latencies, ceiling


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def build_cases(workload, seed, workdir, deadline, traced):
    import workloads  # imports staircase, so only after the sources are found
    if workload == "milnor-germs":
        return workloads.milnor_germs(seed)
    if workload == "random-ideals":
        return workloads.random_ideals(seed)
    for name, text in workloads.family_files(seed).items():
        Path(workdir, name).write_text(text)
    call = (cli_in_process(workdir) if traced
            else cli_in_subprocess(workdir, deadline))
    return cli_cases(workloads.family_cli(seed), call)


def traced_pass(cases, deadline, seen):
    """A pass under the span recorder that reruns every case, so that the
    per-layer times include the cases that run into the deadline."""
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder):
        latencies, _ = run_pass(cases, deadline, set(), seen, recorder)
    return latencies, spans.layer_metrics(recorder), dict(recorder.counts)


def measure(workload, seed, seconds, traced, workdir):
    """Run passes for `seconds` (at least two) and summarize them."""
    import workloads
    deadline = workloads.DEADLINES[workload]
    cases = build_cases(workload, seed, workdir, deadline, traced)
    stopped, seen = set(), {}
    plain, traced_passes, ceilings = [], [], 0
    start = time.perf_counter()
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        latencies, ceiling = run_pass(cases, deadline, stopped, seen)
        plain.append(latencies)
        ceilings = max(ceilings, ceiling)
        if traced:
            traced_passes.append(traced_pass(cases, deadline, seen))
    per_case = [statistics.median(p[i] for p in plain) for i in range(len(cases))]
    summary = {
        "cases": len(cases),
        "passes": len(plain),
        "timeouts": len(stopped),
        "ceiling": ceilings,
        "fail_frac": (len(stopped) + ceilings) / len(cases),
        "wall_s": sum(per_case),
        "case_p50_ms": 1000 * statistics.median(per_case),
        "case_p90_ms": 1000 * percentile(per_case, 90),
    }
    if traced:
        summary.update(per_layer(plain, traced_passes, stopped))
    return summary


def per_layer(plain, traced_passes, stopped):
    """Per-layer metrics: medians of the traced passes' times, exact counts.

    Counters cover the cases that finish. Untraced passes charge the cases
    stopped at the deadline without running them, so the tracing overhead
    compares only the cases that finish.
    """
    counts = traced_passes[0][2]
    if any(p[2] != counts for p in traced_passes):
        raise WrongAnswer("per-layer counters differ between traced passes")
    values = dict.fromkeys(spans.SUM_COUNTERS + spans.MAX_COUNTERS, 0)
    values.update(counts)
    reduced = values["standard_basis.spairs"] - values["standard_basis.spairs_coprime"]
    values["standard_basis.zero_frac"] = (
        values["standard_basis.spairs_zero"] / reduced if reduced else 0.0)
    for name in spans.TIMES:
        values[name] = statistics.median(p[1][name] for p in traced_passes)

    def ran(latencies):
        return sum(t for i, t in enumerate(latencies) if i not in stopped)
    values["trace.overhead_frac"] = (
        statistics.median(ran(p[0]) for p in traced_passes)
        / statistics.median(ran(p) for p in plain) - 1)
    return values


def report_layers(values):
    layers = sorted(((values[f"{layer}.self_s"], layer) for layer in spans.LAYERS),
                    reverse=True)
    total = sum(v for v, _ in layers) or 1.0
    print("self time by layer, median traced pass "
          f"(tracing overhead {values['trace.overhead_frac']:+.3f}):")
    for value, layer in layers:
        print(f"  {layer:<16} {value:9.4f} s  {100 * value / total:5.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "staircase" / "__init__.py").is_file():
        print(f"no staircase sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGALRM, _alarm)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            summary = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    print(f"{args.workload}: {summary['cases']} cases, {summary['passes']} "
          f"passes, {summary['timeouts']} past the deadline, "
          f"{summary['ceiling']} resource-ceiling errors, "
          f"fail_frac {summary['fail_frac']:.4f}")
    if args.trace:
        report_layers(summary)
    else:
        # Taken before measure_setup starts its own children.
        who = (resource.RUSAGE_CHILDREN if args.workload == "family-cli"
               else resource.RUSAGE_SELF)
        summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        summary["setup_s"] = measure_setup()
    print(json.dumps({
        "correct": True,
        "attempted": summary["cases"],
        "failed": summary["ceiling"],
        "metrics": {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
