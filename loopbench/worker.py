"""One fresh interpreter of the loopalg benchmark.

    python3 worker.py setup <jobs.json> <out.json>
    python3 worker.py run <jobs.json> <out.json> [--trace]

`setup` times `import loopalg.cli` plus parsing and validating every
distinct document of the job list.  `run` executes the jobs one after
another through `loopalg.cli.main`, timing each, and records the reports,
exit codes and the process's peak resident set.  Around every job and
every set-up it also times a fixed reference loop (`reference_s`).  With
--trace the layer wrappers of spans.py are installed first.  The checkout root, which holds
`src/loopalg`, is the working directory.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def reference_s():
    """Seconds for a fixed piece of pure-Python work, integer arithmetic and
    dict updates like the package's inner loops: the fastest of three
    tries.  It tells how fast the machine runs Python at that moment."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        s, d = 0, {}
        for i in range(20000):
            s += i * i % 7
        for i in range(3000):
            d[i % 97] = d.get(i % 97, 0) + i
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def setup(job_list):
    ref = reference_s()
    t0 = time.perf_counter()
    import loopalg.cli  # noqa: F401  (the import is what is timed)
    from loopalg import documents
    seen = set()
    for job in job_list:
        for path in job["paths"]:
            if path in seen:
                continue
            seen.add(path)
            C, A = documents.coalgebra_from_document(documents.load_json(path))
            ok, problems = C.verify()
            if not ok:
                raise SystemExit("document %s fails verification" % path)
            A.verify()
    seconds = time.perf_counter() - t0
    return {"setup_s": seconds, "ref_s": (ref + reference_s()) / 2}


def run(job_list, traced):
    from loopalg import cli
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results = []
    t_pass = time.perf_counter()
    refs = [reference_s()]
    for job in job_list:
        argv = [job["command"]] + job["paths"] + ["--format", "json"] + job["args"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer:
                    rc = tracer.root("job", cli.main, argv)
                else:
                    rc = cli.main(argv)
        except Exception as e:  # a crash is a failed job, not a failed run
            rc = None
            error = "%s: %s" % (type(e).__name__, e)
        seconds = time.perf_counter() - t0
        refs.append(reference_s())
        results.append({"id": job["id"], "rc": rc, "seconds": seconds,
                        "ref_s": (refs[-2] + refs[-1]) / 2,
                        "stdout": out.getvalue(), "error": error,
                        "stderr": err.getvalue().strip().splitlines()[-1:]})
    wall = time.perf_counter() - t_pass
    for r in results:
        text = r.pop("stdout")
        try:
            r["report"] = json.loads(text) if text else None
        except ValueError:
            r["report"] = None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": wall, "peak_rss_mb": rss_kb / 1024.0, "jobs": results}
    if tracer:
        out["layers"] = tracer.metrics()
    return out


def main(argv):
    mode, jobs_path, out_path = argv[1], argv[2], argv[3]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    job_list = _load(jobs_path)
    if mode == "setup":
        result = setup(job_list)
    elif mode == "run":
        result = run(job_list, "--trace" in argv[4:])
    else:
        raise SystemExit("unknown mode %r" % mode)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
