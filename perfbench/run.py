"""c2algebra CLI benchmark.

    python3 perfbench/run.py --workload sphere|bar|sweep --seed N --seconds S --trace 0|1

Runs the workload's seeded job list as a closed loop, one client and one job
at a time, each job in a fresh ``python -m c2algebra.cli`` process built from
``src/`` of this checkout.  Passes over the list repeat while the next one is
expected to end within ``--seconds``, and every answer is checked against an
independent reference (see jobs.py).

Times are scaled to a reference speed.  On a shared 2-vCPU Xeon VM the CPU
speed was seen to swing by up to 1.5x over seconds to minutes, far more than
the changes the benchmark must resolve.  So a fixed pure-Python reference
process (REF_CODE, no c2algebra) is spawned before the first job of a pass
and after every job, and the pass's times are multiplied by REF_S / (median
reference time of the pass).  The engine's own cost stays in the scaled time;
most of the machine's speed swing drops out.  The report prints the raw times
too.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes (perfbench/tracer.py), interleaved with untraced passes so the
tracing overhead is measured in the same run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

from jobs import KNOWN_WRONG, WORKLOADS, make_jobs
from tracer import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
JOB_TIMEOUT_S = 30.0      # a job past this is killed and scored as failed
RUN_LIMIT_S = 150.0       # no job starts after this; the run must end in 180 s
SETUP_SPAWNS = 7
REF_S = 0.1               # scaled times are seconds at this reference-process time
REF_CODE = """\
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 8000):
    table[i, i % 7] = i * i
    acc += Fraction(i % 13, i % 5 + 1)
"""

END_TO_END_UNITS = {"wall_s": "s", "job_s.max": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_share": "share"}


def job_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MACKEY_TRUNC", None)   # changes the answers
    return env


def spawn(argv, timeout):
    """Run argv to completion; returns (seconds, exit code or None if killed,
    stdout, stderr, max RSS in KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    fds = (proc.stdout.fileno(), proc.stderr.fileno())
    chunks = {fd: [] for fd in fds}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in (proc.stdout, proc.stderr):
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode("utf-8", "replace") for fd in fds)
    return seconds, None if killed else proc.returncode, out, err, usage.ru_maxrss


class Result:
    def __init__(self, job, seconds, failure, rss_kb, stats=None):
        self.job, self.seconds, self.failure = job, seconds, failure
        self.rss_kb, self.stats = rss_kb, stats
        self.scale = 1.0   # REF_S / median reference time, set by run_series

    @property
    def scaled_s(self):
        return self.seconds * self.scale


def reference():
    seconds, code, _, err, _ = spawn([sys.executable, "-c", REF_CODE], JOB_TIMEOUT_S)
    if code != 0:
        sys.exit("perfbench: reference process failed: %s" % err.strip()[-300:])
    return seconds


def run_series(tasks):
    """Run each task (a callable returning a Result) with a reference process
    before the first and after each; scale the Results by the median
    reference time."""
    refs = [reference()]
    results = []
    for task in tasks:
        results.append(task())
        refs.append(reference())
    for r in results:
        r.scale = REF_S / statistics.median(refs)
    return results


def run_job(job, traced, deadline):
    timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return Result(job, 0.0, "not started: run time limit reached", 0)
    head = [sys.executable, TRACER] if traced else [sys.executable, "-m", "c2algebra.cli"]
    seconds, code, out, err, rss = spawn(head + job.argv, timeout)
    stats = None
    if traced:
        lines = [ln for ln in err.splitlines() if ln.startswith(MARKER)]
        stats = json.loads(lines[-1][len(MARKER):]) if lines else None
    if code is None:
        failure = "timed out after %.0f s" % timeout
    elif code != 0:
        failure = "exit %d: %s" % (code, (err.strip().splitlines() or [""])[0][:160])
    elif traced and stats is None:
        failure = "tracer printed no counters"
    else:
        try:
            failure = job.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            failure = "unreadable output (%s: %s)" % (type(e).__name__, e)
    return Result(job, seconds, failure, rss, stats)


def run_pass(jobs, traced, deadline):
    return run_series([lambda job=job: run_job(job, traced, deadline) for job in jobs])


def run_setup():
    def once():
        seconds, code, _, err, _ = spawn([sys.executable, "-c", "import c2algebra.cli"],
                                         JOB_TIMEOUT_S)
        if code != 0:
            sys.exit("perfbench: cannot import c2algebra.cli: %s" % err.strip()[-300:])
        return Result(None, seconds, None, 0)
    return run_series([once] * SETUP_SPAWNS)


def median_by_job(passes, value):
    return [statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes, setup):
    job_s = median_by_job(passes, lambda r: r.scaled_s)
    rss = median_by_job(passes, lambda r: r.rss_kb)
    results = [r for p in passes for r in p]
    ok = sum(1 for r in results if r.failure is None)
    return {
        "wall_s": sum(job_s),
        "job_s.max": max(job_s),
        "setup_s": statistics.median(r.scaled_s for r in setup),
        "peak_rss_mb": max(rss) / 1024.0,
        "ok_share": ok / len(results),
    }


PER_LAYER_UNITS = dict(
    {name: "count" for name in (
        "abelian.snf_calls", "abelian.solve_calls", "abelian.hnf_calls",
        "abelian.snf_max_cells", "polyring.mul_calls", "polyring.normal_form_calls",
        "polyring.coerce_calls", "trace.complex_builds", "complexes.homology_calls",
        "mackey.validate_calls")},
    **{name: "s" for name in (
        "abelian.snf_s", "abelian.self_s", "polyring.self_s", "trace.complex_build_s",
        "trace.self_s", "complexes.suspend_s", "complexes.self_s", "mackey.self_s",
        "tambara.validate_s", "tambara.self_s", "differentials.self_s",
        "cli.import_s", "cli.parse_s", "cli.self_s")},
    **{"abelian.snf_max_bits": "bits", "trace_overhead": "ratio"})


def pass_layers(results):
    """Per-layer numbers of one traced pass: sums over its jobs, except the
    maxima and the per-process import time (median over jobs).  Times are
    scaled like the job's wall time."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        vals = [r.stats[name] * (r.scale if unit == "s" else 1)
                for r in results if r.stats and name in r.stats]
        if not vals:
            continue
        if name.endswith("_max_cells") or name.endswith("_max_bits"):
            out[name] = max(vals)
        elif name == "cli.import_s":
            out[name] = statistics.median(vals)
        else:
            out[name] = sum(vals)
    return out


def per_layer(traced_passes, plain_passes):
    layers = [pass_layers(p) for p in traced_passes]
    out = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    wall = lambda p: sum(r.scaled_s for r in p)
    out["trace_overhead"] = (statistics.median(map(wall, traced_passes))
                             / statistics.median(map(wall, plain_passes)))
    return out


def print_report(workload, seed, jobs, passes, traced_passes):
    print("workload %s, seed %d: %s" % (workload, seed, WORKLOADS[workload]))
    print("python %s, %d CPUs" % (sys.version.split()[0], os.cpu_count()))
    print("closed loop, 1 client, %d jobs x %d untraced passes%s" % (
        len(jobs), len(passes),
        ", %d traced passes" % len(traced_passes) if traced_passes else ""))
    job_s = median_by_job(passes, lambda r: r.scaled_s)
    raw_s = median_by_job(passes, lambda r: r.seconds)
    rss = median_by_job(passes, lambda r: r.rss_kb)
    print("  %-30s %10s %10s %7s" % ("job", "scaled", "raw", "RSS"))
    for i, job in enumerate(jobs):
        counts = ""
        if traced_passes:
            s = traced_passes[0][i].stats or {}
            counts = " snf=%s solve=%s builds=%s coerce=%s" % (
                s.get("abelian.snf_calls"), s.get("abelian.solve_calls"),
                s.get("trace.complex_builds"), s.get("polyring.coerce_calls"))
        print("  %-30s %8.3f s %8.3f s %4.1f MB%s"
              % (job.name, job_s[i], raw_s[i], rss[i] / 1024.0, counts))
    print("  raw wall %.3f s; scaled wall %.3f s" % (sum(raw_s), sum(job_s)))
    failed = {}
    for p in passes + traced_passes:
        for r in p:
            if r.failure is not None:
                failed.setdefault(r.job.name, (r.failure, r.job.source))
    for name, (why, source) in sorted(failed.items()):
        tag = "known wrong at the seed commit" if name in KNOWN_WRONG else "UNEXPECTED"
        print("  FAILED %s [%s]: %s\n    reference: %s" % (name, tag, why, source))
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "c2algebra", "cli.py")):
        sys.exit("perfbench: no c2algebra sources under %s" % SRC)

    jobs = make_jobs(args.workload, args.seed)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = [] if args.trace else run_setup()
    passes, traced_passes = [], []
    measure_start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, False, deadline))
        if args.trace:
            traced_passes.append(run_pass(jobs, True, deadline))
        spent = time.perf_counter() - measure_start
        if spent * (len(passes) + 1) / len(passes) > min(args.seconds, RUN_LIMIT_S):
            break

    failed = print_report(args.workload, args.seed, jobs, passes, traced_passes)
    results = [r for p in passes + traced_passes for r in p]
    n_failed = sum(1 for r in results if r.failure is not None)
    if args.trace:
        values, units = per_layer(traced_passes, passes), PER_LAYER_UNITS
    else:
        values, units = end_to_end(passes, setup), END_TO_END_UNITS
        print("  raw setup %.4f s" % statistics.median(r.seconds for r in setup))
        print("  failed_share = %r (%d of %d jobs)" % (n_failed / len(results), n_failed,
                                                        len(results)))
    for name, value in values.items():
        print("  %s = %r %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": all(name in KNOWN_WRONG for name in failed),
        "attempted": len(results),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
