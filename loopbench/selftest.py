"""Checks of the benchmark's generator, oracles and tracing.

    python3 loopbench/selftest.py

Run from the root of a checkout.  The oracle checks need nothing but this
directory; the last checks run a few small jobs through worker.py.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402


def _job(command, spaces, cutoff, ring="Z", args=()):
    return {"command": command, "spaces": spaces, "cutoff": cutoff,
            "ring": ring, "args": list(args)}


def _report(ranks, torsion=None):
    torsion = torsion or {}
    return {"homology": {str(n): {"rank": r, "torsion": torsion.get(n, [])}
                         for n, r in enumerate(ranks)}}


def test_mod2_table_of_double_loop_s3():
    assert oracle.table(_job("double-loop", [gen.S(3)], 8), 2, 7) == \
        [1, 1, 1, 2, 2, 2, 3, 4]


def test_mod3_table_of_double_loop_s3():
    # Lambda[x1, x5, x17] (x) F3[y4, y16]
    assert oracle.table(_job("double-loop", [gen.S(3)], 13), 3, 12) == \
        [1, 1, 0, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1]


def test_rational_and_odd_prime_tables_of_double_loop_s5():
    assert oracle.double_loop_sphere(5, 0, 6) == [1, 0, 0, 1, 0, 0, 0]
    # Lambda[x3, x11] (x) F3[y10]
    assert oracle.double_loop_sphere(5, 3, 11) == \
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1]


def test_witt_numbers():
    assert [oracle.witt(1, 0), oracle.witt(2, 0), oracle.witt(1, 1)] == [1, 0, 1]
    # the free Lie algebra on two generators has dimension 9 in degree 6
    assert sum(oracle.witt(i, 6 - i) for i in range(7)) == 9
    assert oracle.witt(3, 3) == 3


def test_word_counts():
    assert oracle.loop_table(gen.S(3), 6) == [1, 0, 1, 0, 1, 0, 1]
    assert oracle.loop_table(gen.W(3, 4), 5) == [1, 0, 1, 1, 1, 2]
    # T(x1) (x) T(y2): two classes in degree 3
    assert oracle.loop_table(gen.P(2, 3), 3) == [1, 1, 2, 2]
    assert oracle.loop_table(gen.NP(3, 3), 4) == [1, 0, 2, 0, 5]


def test_fiber_is_convolution():
    job = _job("fiber", [gen.S(5), gen.S(3)], 9, "F2")
    assert oracle.table(job, 2, 8) == [1, 1, 1, 2, 3, 3, 4, 6, 7]


def test_uct_accepts_integral_double_loop_s3():
    # H_*(Omega^2 S^3; Z) through degree 6, as the seed computes it
    report = _report([1, 1, 0, 0, 0, 0, 0],
                     {2: [2], 3: [2], 4: [6], 5: [6], 6: [2, 2]})
    job = _job("double-loop", [gen.S(3)], 7)
    assert oracle.homology_mismatches(job, report) == []
    report["homology"]["4"]["torsion"] = [2]
    assert oracle.homology_mismatches(job, report) != []


def test_cotor_top_degree_defect_is_named():
    # S3 over Z at cutoff 7: H6 = Z + Z/2 where the double loop has Z/2 + Z/2
    report = _report([1, 1, 0, 0, 0, 0, 1],
                     {2: [2], 3: [2], 4: [6], 5: [6], 6: [2]})
    job = _job("cotor", [gen.S(3)], 7, args=("--hopf", "trivial"))
    ok, _, defect = oracle.check(job, {"rc": 0, "report": report})
    assert not ok and defect == "cotor-top-degree"


def test_dropped_generator_defect_is_named():
    # cobar of S2 x S3 at cutoff 4 reports rank 3 in degree 3; the answer is 2
    job = _job("cobar", [gen.P(2, 3)], 4)
    ok, _, defect = oracle.check(job, {"rc": 0, "report": _report([1, 1, 2, 3])})
    assert not ok and defect == "dropped-generator"
    # the same mismatch with every generator inside the cutoff is unexplained
    job = _job("cobar", [gen.P(2, 3)], 6)
    ok, _, defect = oracle.check(
        job, {"rc": 0, "report": _report([1, 1, 2, 3, 3, 4])})
    assert not ok and defect is None


def test_verify_verdicts():
    nc = _job("verify", [gen.NC(3, 3)], 7)
    assert oracle.expected_verdict(nc) == (2, "induced-coassociativity")
    assert oracle.expected_verdict(_job("verify", [gen.NC(3, 3)], 6)) == (0, None)
    report = {"verifications": [{"suite": "coalgebra", "status": "pass"},
                                {"suite": "induced-coassociativity",
                                 "status": "fail"}]}
    assert oracle.check(nc, {"rc": 2, "report": report})[0]
    assert not oracle.check(nc, {"rc": 0, "report": {"verifications": []}})[0]


def test_verdict_change_near_the_cutoff_is_named():
    # u of NC(3, 3) has degree 7: at cutoff 6 today's pass rests on its
    # being dropped, so a changed verdict there is the known defect
    failing = {"rc": 2, "report": {"verifications": [
        {"suite": "induced-coassociativity", "status": "fail"}]}}
    ok, _, defect = oracle.check(_job("verify", [gen.NC(3, 3)], 6), failing)
    assert not ok and defect == "dropped-generator"
    ok, _, defect = oracle.check(_job("verify", [gen.NP(3, 3)], 6), failing)
    assert not ok and defect is None


def test_generator_is_seeded():
    for workload in gen.WORKLOADS:
        a, b = gen.jobs(workload, 7), gen.jobs(workload, 7)
        assert a == b
        assert a != gen.jobs(workload, 8)
    cutoffs = {j["cutoff"] % 2 for s in range(5) for j in gen.jobs("torsion-z", s)}
    assert cutoffs == {0, 1}


def test_documents_are_well_formed():
    for workload in gen.WORKLOADS:
        for job in gen.jobs(workload, 3):
            for doc, space in zip(job["documents"], job["spaces"]):
                degs = sorted(g["degree"] for g in doc["generators"])
                assert degs == sorted(gen.generator_degrees(space))
                assert doc["ring"] == job["ring"] and doc["cutoff"] == job["cutoff"]
                assert len({g["label"] for g in doc["generators"]}) == len(degs)


def test_field_fp_recurs_at_both_primes():
    jobs = gen.jobs("field-fp", 1)
    by_doc = {}
    for job in jobs:
        key = json.dumps([dict(d, ring=None) for d in job["documents"]],
                         sort_keys=True) + job["command"] + str(job["args"])
        by_doc.setdefault(key, set()).add(job["ring"])
    assert all(rings == {"F2", "Fp:3"} for rings in by_doc.values())


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_the_generated_workloads():
    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w["why"] for name, w in gen.WORKLOADS.items()}


def _run_worker(job_list, traced):
    tmp = tempfile.mkdtemp(dir=os.path.join(os.getcwd(), ".bench_build"))
    try:
        for i, job in enumerate(job_list):
            job["id"] = "t%d" % i
            job["paths"] = []
            for k, doc in enumerate(job["documents"]):
                path = os.path.join(tmp, "%d-%d.json" % (i, k))
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                job["paths"].append(path)
        jobs_path = os.path.join(tmp, "jobs.json")
        with open(jobs_path, "w") as fh:
            json.dump(job_list, fh)
        out = os.path.join(tmp, "out.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "run",
                        jobs_path, out] + (["--trace"] if traced else []),
                       check=True, timeout=120)
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _small_jobs(rings):
    rng = random.Random(0)
    out = []
    for ring in rings:
        for cmd, space, c, args in (("double-loop", gen.S(3), 8, ()),
                                    ("cotor", gen.S(3), 7, gen.TRIV),
                                    ("cobar", gen.P(2, 3), 4, ())):
            job = _job(cmd, [space], c, ring, args)
            job["documents"] = [gen.document(rng, space, ring, c)]
            out.append(job)
    return out


def test_end_to_end_seed_defects_and_trace():
    os.makedirs(".bench_build", exist_ok=True)
    jobs = _small_jobs(["Z"])
    res = _run_worker(jobs, traced=True)
    verdicts = [oracle.check(j, r) for j, r in zip(jobs, res["jobs"])]
    assert verdicts[0] == (True, None, None)
    assert verdicts[1][2] == "cotor-top-degree"
    assert verdicts[2][2] == "dropped-generator"
    layers = res["layers"]
    assert layers["linalg.smith_normal_form.self_s"] > 0
    assert layers["trace.self_s_sum"] <= layers["trace.wall_s"] <= res["wall_s"]
    listed = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(layers) <= listed, set(layers) - listed
    fld = _run_worker(_small_jobs(["F2"]), traced=True)["layers"]
    assert fld.get("linalg.smith_normal_form.self_s", 0) == 0
    assert fld.get("linalg.solve_integer.calls", 0) == 0


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print("ok   %s" % name)
        except Exception as e:
            failed += 1
            print("FAIL %s: %s: %s" % (name, type(e).__name__, e))
    print("%d passed, %d failed" % (len(tests) - failed, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
