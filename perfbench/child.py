"""The benchmark's run process: a fresh interpreter for each timed command,
and for each traced batch.

    python3 perfbench/child.py setup SOURCE...   import ncg, load every
        fixture or manifest, print time.monotonic() once loaded
    python3 perfbench/child.py run SPEC.json     run the `ncg` commands of
        SPEC through `ncg.cli.main`, one after another

A run writes a JSON result to the path named in its spec: per command the
exit code, the wall time, its start and end on the system-wide monotonic
clock (so the host speed samples taken meanwhile can be found), a summary of the report (case names, FAIL count,
reduction certificates, a digest of the report text) and, when traced, the
per-layer metrics.  Summaries are taken after timing ends.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(sources):
    from ncg.io import load_manifest
    for source in sources:
        load_manifest(source)
    print(repr(time.monotonic()))


def summarize(text):
    """Case names, FAIL count and reduction certificates of one report."""
    report = json.loads(text)
    cases = report["cases"]
    certificates = [c["certificate"] for c in cases
                    if c["verdict"] == "PASS" and isinstance(c.get("certificate"), list)]
    return {
        "names": sorted(c["name"] for c in cases),
        "failed_cases": sum(c["verdict"] != "PASS" for c in cases),
        "reductions": len(certificates),
        "nonvacuous": sum(bool(c) for c in certificates),
        "certificate_terms": sum(len(c) for c in certificates),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_command(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    began = time.monotonic()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    interval = (began, time.monotonic())
    return rc, seconds, interval, out.getvalue(), error or err.getvalue()


def run(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    from ncg import cli
    tracer = None
    main = cli.main
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        main = tracer.command(cli.main)

    raw, command_counts = [], []
    for command in spec["commands"]:
        before = dict(tracer.counts) if tracer else {}
        raw.append((command, *run_command(main, command["argv"])))
        if tracer:
            command_counts.append({k: v - before.get(k, 0)
                                   for k, v in tracer.counts.items()
                                   if v != before.get(k, 0)})

    results = []
    for command, rc, seconds, interval, text, error in raw:
        entry = {"id": command["id"], "rc": rc, "seconds": seconds,
                 "interval": interval, "error": error}
        try:
            entry.update(summarize(text))
        except (ValueError, KeyError, TypeError) as exc:
            entry["error"] = (error or "") + f"unreadable report: {exc!r}"
        results.append(entry)
    out = {"commands": results,
           "wall_s": sum(r["seconds"] for r in results),
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracer import Trace, command_shares, layer_metrics
        trace = Trace(tracer.spans, tracer.counts)
        out["metrics"] = layer_metrics(trace)
        out["counts"] = dict(trace.counts)
        out["command_counts"] = dict(zip(
            [c["id"] for c in spec["commands"]], command_counts))
        out["command_shares"] = command_shares(
            trace, [c["id"] for c in spec["commands"]])
        Path(spec["spans"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans, "counts": dict(tracer.counts)}))
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        run(sys.argv[2])
