"""The loopalg benchmark.

    python3 loopbench/run.py --workload torsion-z --seed 1 --seconds 36 --trace 0

Run from the root of a checkout (the directory holding `src/loopalg` and
`BENCHMARK.json`).  One run:

1. draws the workload's job list from the seed and writes its documents
   as JSON under `.bench_build/loopbench/`;
2. runs the whole list in a fresh interpreter, one job after another
   (a closed loop with one client), then times three fresh interpreters
   importing `loopalg.cli` and parsing and validating the documents
   (set-up), and repeats both while another round still fits in
   --seconds;
3. with --trace 1, runs one more pass with the layer wrappers of spans.py;
4. checks every job of every pass against oracle.py, off the clock;
5. prints a summary, the failing jobs, and as its last line the JSON
   result: the end-to-end metrics of BENCHMARK.json, or with --trace 1
   its per-layer metrics.

--repeat N makes N such runs on the same seed and prints each metric's
median, quartiles, spread (interquartile range over median) and the
relative difference between the medians of the first and second half of
the runs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

SETUP_PROBES_PER_PASS = 3
# worker.reference_s() on an Intel Xeon vCPU at 2.1 GHz, Python 3.11.7
REF_S = 0.0025
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here."""


def _worker(root, mode, jobs_path, out_path, traced=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, jobs_path,
            out_path] + (["--trace"] if traced else [])
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker %s failed (exit %d): %s" % (
            mode, proc.returncode, proc.stderr.strip()[-2000:]))
    with open(out_path) as fh:
        return json.load(fh)


def _write_jobs(job_list, workdir):
    os.makedirs(workdir, exist_ok=True)
    for job in job_list:
        job["paths"] = []
        for k, doc in enumerate(job["documents"]):
            path = os.path.join(workdir, "%s-%d.json" % (job["id"], k))
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            job["paths"].append(path)
    path = os.path.join(workdir, "jobs.json")
    with open(path, "w") as fh:
        json.dump(job_list, fh)
    return path


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, summary lines)."""
    job_list = gen.jobs(workload, seed)
    workdir = os.path.join(root, ".bench_build", "loopbench",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        jobs_path = _write_jobs(job_list, workdir)
        result_path = os.path.join(workdir, "result.json")
        passes, setups = [], []
        t0 = time.perf_counter()
        while not passes or (time.perf_counter() - t0) * (
                len(passes) + 1) / len(passes) <= seconds:
            passes.append(_worker(root, "run", jobs_path, result_path))
            # set-up probes between passes, so that one slow spell of a
            # shared machine does not decide their median
            for _ in range(SETUP_PROBES_PER_PASS):
                setups.append(_worker(root, "setup", jobs_path, result_path))
        traced = _worker(root, "run", jobs_path, result_path, traced=True) \
            if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    unexplained = []
    failures = {}
    for p in passes + ([traced] if traced else []):
        for job, res in zip(job_list, p["jobs"]):
            attempted += 1
            ok, detail, defect = oracle.check(job, res)
            if ok:
                continue
            failed += 1
            failures[job["id"]] = (job, detail, defect)
            if defect is None:
                unexplained.append(job["id"])

    # Times at reference speed: each is scaled by REF_S over the reference
    # loop's time measured around it, so that a shared machine's fast and
    # slow spells, which last seconds to minutes, cancel out.
    walls = [p["wall_s"] for p in passes]
    speed = statistics.median(r["ref_s"] for p in passes for r in p["jobs"])
    scaled = [[r["seconds"] * REF_S / r["ref_s"] for r in p["jobs"]]
              for p in passes]
    times = [t for p in scaled for t in p]
    values = {
        "wall_s": statistics.median(sum(p) for p in scaled),
        "job_s.p50": statistics.median(times),
        "job_s.p90": _quantile(times, 90),
        "setup_s": statistics.median(s["setup_s"] * REF_S / s["ref_s"]
                                     for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_rate": 1.0 - failed / attempted,
    }
    lines = ["workload %s: %s" % (workload, gen.WORKLOADS[workload]["why"]),
             "seed %d: %d jobs per pass, %d passes (%s s as measured, "
             "reference loop %.3f ms), %d job-time samples, %d set-up "
             "probes; fail_rate %d/%d = %.4f" % (
                 seed, len(job_list), len(passes),
                 " ".join("%.3f" % w for w in walls), speed * 1000,
                 len(times), len(setups), failed, attempted,
                 failed / attempted)]
    for jid in sorted(failures):
        job, detail, defect = failures[jid]
        lines.append("  FAIL %s %s %s c=%d %s [%s] %s: %s" % (
            jid, job["command"], " ".join(job["args"]), job["cutoff"],
            job["ring"], ",".join(sp["family"] + str(sp["dims"])
                                  for sp in job["spaces"]),
            defect or "UNEXPLAINED", detail))
    if traced:
        values.update(traced["layers"])
        values["trace.overhead"] = sum(
            r["seconds"] * REF_S / r["ref_s"] for r in traced["jobs"]
        ) / values["wall_s"]
    result = {"correct": not unexplained, "attempted": attempted,
              "failed": failed, "values": values}
    return result, lines


def _spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def _environment():
    from importlib import metadata
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "missing"
    return "python %s, sympy %s, nproc %d" % (
        sys.version.split()[0], sympy, len(os.sched_getaffinity(0)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "loopalg", "cli.py")):
            raise BenchError("no src/loopalg in %s: run from the root of a "
                             "loopalg checkout" % root)
        spec = _spec(root)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = [(m["name"], m["unit"]) for m in spec[kind]]
        print(_environment())
        if args.repeat:
            return _repeat(root, args, metrics)
        result, lines = run_once(root, args.workload, args.seed, args.seconds,
                                 args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"].get(name, 0), "unit": unit}
                    for name, unit in metrics}}))
    return 0


def _repeat(root, args, metrics):
    runs = []
    for _ in range(args.repeat):
        result, lines = run_once(root, args.workload, args.seed,
                                 args.seconds, args.trace)
        print("\n".join(lines))
        print("  " + "  ".join("%s=%.6g" % (name, result["values"].get(name, 0))
                               for name, _ in metrics))
        runs.append(result)
    summary = {}
    for name, unit in metrics:
        vals = [r["values"].get(name, 0) for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        half = len(vals) // 2
        first = statistics.median(vals[:half]) if half else med
        halves = abs(statistics.median(vals[half:]) - first) / first \
            if first else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "halves": halves, "unit": unit}
        print("%-48s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  "
              "halves %.4f" % (name, med, q1, q3, spread, halves))
    print(json.dumps({"runs": len(runs),
                      "correct": all(r["correct"] for r in runs),
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
