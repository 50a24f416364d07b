"""ncg benchmark: time to a verdict for `ncg verify` on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the inputs
the workload needs under `.bench_build/perfbench/`, checks each generated
manifest with `ncg validate`, and then drives `ncg verify` from outside:
one process, one thread, closed loop.  Each timed command runs in a fresh
interpreter, as a user's commands do, so nothing the program caches in
memory outlives a command.

--trace 0 measures the end-to-end metrics with tracing off.  A batch is
every command of the workload, once, with a suite seed of its own drawn
from --seed; at least MIN_BATCHES batches run, and more while the next one
would end within --seconds.  The run pins itself to one CPU, where a
sampler (hostspeed.py) measures the host's speed throughout; times are
reported in seconds at the sampler's nominal host speed, and the raw wall
times are printed too.  --trace 1 runs one untraced batch and two traced ones (under
PYTHONHASHSEED 0 and 1), all with the same suite seeds, and reports the
per-layer metrics; the counters of the two traced batches must agree
exactly.

Every command must exit 0, report PASS for every case and report exactly
the expected case names; commands run with the same suite seed must give
byte-identical reports.  The last line of standard output is one JSON
object with the verdict of those checks and the metrics.  See NOTES.md for
what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"

SETUP_REPEATS = 9
MIN_BATCHES = 2
TRACE_HASH_SEEDS = ("0", "1")
CHILD_TIMEOUT_S = 170
# Counters printed per command, for spot checks against earlier profiles.
SPOT_COUNTS = ("coefficients.gaussrat_new", "linalg.insert",
               "linalg.insert_useful", "coefficients.pullback")

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from workloads import WORKLOADS, commands, sources  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def suite_seed(seed, batch):
    """The suite seed of one batch: every batch of a run samples anew."""
    return seed * 1000 + batch


def child_env(hash_seed=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def validate(manifests):
    for path in manifests.values():
        proc = subprocess.run([sys.executable, "-m", "ncg.cli", "validate", path],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"ncg validate {path} exited {proc.returncode}:\n"
                               f"{proc.stdout}{proc.stderr}")


def setup_interval(workload_sources):
    """From process start until every input is loaded, in a fresh process:
    (start, end) on the monotonic clock."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), "setup", *workload_sources],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"loading the inputs failed:\n{proc.stderr}")
    return start, float(proc.stdout.split()[-1])


class Batches:
    """Runs batches in fresh child processes and keeps their results.

    Each result holds the commands it ran ("cmds"), per command the child's
    summary ("commands"), the wall time of the commands ("wall_s") and the
    peak resident memory of the processes that ran them ("maxrss_kb").
    """

    def __init__(self, workdir, workload, seed, manifests):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.manifests = manifests
        self.results = []
        self.children = 0

    def commands(self, batch):
        return commands(self.workload, suite_seed(self.seed, batch),
                        self.manifests)

    def _child(self, cmds, trace=False, hash_seed=None):
        n = self.children
        self.children += 1
        spec = {"commands": cmds, "trace": trace,
                "result": str(self.workdir / f"child-{n}.json"),
                "spans": str(WORK / "traces" /
                             f"{self.workload}-seed{self.seed}-h{hash_seed}.json")}
        spec_path = self.workdir / f"child-{n}-spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(CHILD), "run", str(spec_path)],
                              cwd=ROOT, env=child_env(hash_seed),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            crashed = f"run process exit {proc.returncode}: {proc.stderr[-2000:]}"
            return {"commands": [{"id": c["id"], "rc": None, "error": crashed}
                                 for c in cmds],
                    "wall_s": 0.0, "maxrss_kb": 0}
        return json.loads(Path(spec["result"]).read_text())

    def run_timed(self, batch):
        """Every command in a process of its own."""
        cmds = self.commands(batch)
        entries, wall_s, maxrss = [], 0.0, 0
        for cmd in cmds:
            got = self._child([cmd])
            entries += got["commands"]
            wall_s += got["wall_s"]
            maxrss = max(maxrss, got["maxrss_kb"])
        result = {"cmds": cmds, "commands": entries, "wall_s": wall_s,
                  "maxrss_kb": maxrss}
        self.results.append(result)
        return result

    def run_traced(self, hash_seed):
        """Every command of batch 0 in one traced process."""
        cmds = self.commands(0)
        result = self._child(cmds, trace=True, hash_seed=hash_seed)
        result["cmds"] = cmds
        self.results.append(result)
        return result


def complete(result):
    return all("names" in c and c["rc"] == 0 for c in result["commands"])


def check(batches):
    """(attempted, failed, problems) over every batch of the run."""
    attempted = failed = 0
    problems = []
    digests = {}
    for b, result in enumerate(batches.results):
        for cmd, got in zip(result["cmds"], result["commands"]):
            where = f"batch {b} {cmd['id']} seed {cmd['argv'][-1]}"
            if "names" not in got:
                attempted += len(cmd["expected"])
                failed += 1
                problems.append(f"{where}: exit {got['rc']}, no report: {got['error']}")
                continue
            attempted += len(got["names"])
            failed += got["failed_cases"] + (got["rc"] != 0)
            if got["rc"] != 0:
                problems.append(f"{where}: exit code {got['rc']} {got['error'] or ''}")
            if got["failed_cases"]:
                problems.append(f"{where}: {got['failed_cases']} FAIL case(s)")
            if got["names"] != cmd["expected"]:
                missing = sorted(set(cmd["expected"]) - set(got["names"]))
                extra = sorted(set(got["names"]) - set(cmd["expected"]))
                problems.append(f"{where}: case names differ; missing {missing}, "
                                f"unexpected {extra}")
            first = digests.setdefault(tuple(cmd["argv"]), got["digest"])
            if got["digest"] != first:
                problems.append(f"{where}: report differs from an earlier report "
                                f"of the same command")
    return attempted, failed, problems


def nonvacuous_share(results):
    commands = [c for r in results for c in r["commands"]]
    reductions = sum(c.get("reductions", 0) for c in commands)
    nonvacuous = sum(c.get("nonvacuous", 0) for c in commands)
    return nonvacuous / reductions if reductions else 0.0


def timed_run(batches, seconds):
    start = time.monotonic()
    walls = []
    while True:
        t = time.monotonic()
        batches.run_timed(len(walls))
        walls.append(time.monotonic() - t)
        if len(walls) >= MIN_BATCHES and \
                time.monotonic() - start + statistics.median(walls) > seconds:
            break


def timed_metrics(batches, setup, sampler):
    """End-to-end metrics; times scaled to the nominal host speed."""
    setup_s = [(end - start) * sampler.scale(start, end, hostspeed.PAD_S)
               for start, end in setup]
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    notes = [f"setup_s samples: {len(setup_s)}, wall median "
             f"{statistics.median(end - start for start, end in setup):.4f} s"]
    good = [r for r in batches.results if complete(r)]
    if not good:
        return metrics, notes
    for r in good:
        for c in r["commands"]:
            c["scaled"] = c["seconds"] * sampler.scale(*c["interval"])
        r["run_s"] = sum(c["scaled"] for c in r["commands"])
    run_s = [r["run_s"] for r in good]
    wall_s = [r["wall_s"] for r in good]
    # The mean over every batch of the run: each batch has suite seeds of
    # its own, and the mean weighs them alike.
    metrics["run_s"] = (statistics.fmean(run_s), "s")
    metrics["peak_rss_mb"] = (max(r["maxrss_kb"] for r in good) / 1024, "MB")
    metrics["nonvacuous_share"] = (nonvacuous_share(good), "share")
    chunks = [c for _, c in sampler.samples]
    notes.append(f"run_s samples: {len(run_s)} "
                 f"(min {min(run_s):.3f} s, max {max(run_s):.3f} s); "
                 f"wall mean {statistics.fmean(wall_s):.3f} s "
                 f"(min {min(wall_s):.3f} s, max {max(wall_s):.3f} s)")
    notes.append(f"host speed samples: {len(chunks)}, chunk median "
                 f"{statistics.median(chunks) * 1e3:.3f} ms (nominal "
                 f"{hostspeed.NOMINAL_S * 1e3:.3f} ms), quartiles "
                 + ", ".join(f"{q * 1e3:.3f}" for q in statistics.quantiles(chunks, n=4)))
    for i, cmd in enumerate(good[0]["cmds"]):
        scaled = [r["commands"][i]["scaled"] for r in good]
        wall = [r["commands"][i]["seconds"] for r in good]
        notes.append(f"command {cmd['id']}: median {statistics.median(scaled):.3f} s "
                     f"scaled, {statistics.median(wall):.3f} s wall")
    return metrics, notes


def traced_run(batches):
    untraced = batches.run_timed(0)
    traced = [batches.run_traced(h) for h in TRACE_HASH_SEEDS]
    notes, problems = [], []
    if not all(complete(r) for r in [untraced, *traced]):
        return {}, notes, problems
    first = traced[0]["counts"]
    for h, other in zip(TRACE_HASH_SEEDS[1:], traced[1:]):
        diff = {k: (first.get(k), other["counts"].get(k))
                for k in set(first) | set(other["counts"])
                if first.get(k) != other["counts"].get(k)}
        if diff:
            problems.append(f"counters differ between traced batches "
                            f"(PYTHONHASHSEED {TRACE_HASH_SEEDS[0]} vs {h}): {diff}")
    metrics = {}
    for name, (_, unit) in traced[0]["metrics"].items():
        metrics[name] = (statistics.median(r["metrics"][name][0] for r in traced), unit)
    metrics["chern.certificate_terms"] = (
        sum(c.get("certificate_terms", 0) for c in traced[0]["commands"]), "count")
    traced_s = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced["wall_s"], "s")
    notes.append(f"untraced wall {untraced['wall_s']:.3f} s, traced wall "
                 f"{traced_s:.3f} s")
    for command_id, shares in traced[0]["command_shares"].items():
        text = ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        notes.append(f"command {command_id} shares: {text}")
        counts = traced[0]["command_counts"][command_id]
        text = ", ".join(f"{k} {counts.get(k, 0)}" for k in SPOT_COUNTS)
        notes.append(f"command {command_id} counts: {text}")
    return metrics, notes, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncg" / "__init__.py").is_file():
        print(f"no ncg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    workdir = WORK / f"run-{os.getpid()}"
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    try:
        manifests = inputs.generate(workdir)
        validate(manifests)
        batches = Batches(workdir, args.workload, args.seed, manifests)
        if args.trace:
            metrics, notes, problems = traced_run(batches)
        else:
            cpu = hostspeed.benchmark_cpu()
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            sampler = hostspeed.Sampler(workdir / "host-speed.txt", cpu)
            with sampler:
                setup = [setup_interval(sources(args.workload, manifests))
                         for _ in range(SETUP_REPEATS)]
                timed_run(batches, args.seconds)
            sampler.read()
            metrics, notes = timed_metrics(batches, setup, sampler)
            problems = []
        attempted, failed, check_problems = check(batches)
        problems += check_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(batches.results)} batch(es), trace {args.trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'failed_share':34s} {failed / max(attempted, 1):14.6f} share "
          f"({failed} of {attempted} cases)")
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
