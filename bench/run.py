"""quadproto benchmark: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of teleport_sweep, locc_search, capacity_sweep, cli_mix, or
``all`` to run the four in turn.  Each workload runs in fresh child
processes, one at a time, on one CPU, with BLAS/OpenMP pools pinned to one
thread:
SETUP_SAMPLES processes time set-up, then one worker measures.  The last
line printed for each workload is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer counters of a traced run, with its overhead.
quadproto is imported from ``src/`` of the checkout that holds this file.
See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("teleport_sweep", "locc_search", "capacity_sweep", "cli_mix")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.pop("QUADPROTO_BENCH_TRACE", None)
    return env


def run_child(argv, env) -> dict:
    """Run worker.py with ``argv``; its last stdout line is JSON.

    The worker gets a process group of its own, so that on a timeout its
    CLI children are killed with it.
    """
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited with %d" % (" ".join(argv), proc.returncode))
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, workdir) -> dict:
    env = child_env()
    base = ["--workload", name, "--seed", str(seed), "--workdir", workdir]

    def setup_samples(count):
        return [run_child(base + ["--setup-only"], env)["setup_s"] for _ in range(count)]

    # set-up is sampled before and after the measuring worker, so that the
    # median spans the run rather than one burst of host load
    setups = [] if trace else setup_samples(SETUP_SAMPLES // 2)
    res = run_child(base + ["--seconds", str(seconds), "--trace", str(trace)], env)
    setups.append(res["setup_s"])
    if not trace:
        setups += setup_samples(SETUP_SAMPLES - len(setups))

    if trace:
        from tracer import metric_names
        metrics = {key: metric(res["layers"][key], unit) for key, unit in metric_names()}
        metrics["trace.untraced_wall_s"] = metric(res["untraced_wall_s"], "s")
        metrics["trace.wall_s"] = metric(res["traced_wall_s"], "s")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (res["traced_wall_s"] / res["untraced_wall_s"] - 1.0), "%")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(res["wall_s"], "s"),
            "op_p50_ms": metric(res["op_p50_ms"], "ms"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        p95 = "" if res["raw_p95_ms"] is None else ", op p95 %.3f ms" % res["raw_p95_ms"]
        print("%s: %d timed passes, %d operations; unscaled: median pass %.3f s, "
              "op p50 %.3f ms%s, warm-up pass %.3f s, set-up %.3f s"
              % (name, res["passes"], res["ops"], res["raw_pass_s"], res["raw_p50_ms"],
                 p95, res["raw_warmup_s"], res["raw_setup_s"]))
    for key, m in metrics.items():
        print("%s  %-48s %.6g %s" % (name, key, m["value"], m["unit"]))
    for err in res["errors"]:
        print("%s  CHECK FAILED: %s" % (name, err), file=sys.stderr)
    print("%s  attempted=%d failed=%d correct=%s"
          % (name, res["attempted"], res["failed"], res["correct"]))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "quadproto", "__init__.py")):
        print("error: no quadproto sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    # every process of a run shares one CPU, so the host-speed probe in the
    # worker (see worker.py) runs where the CLI children of cli_mix run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(ROOT, ".bench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    correct = True
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(name, args.seed, args.seconds, args.trace, workdir)
            correct &= result["correct"]
            print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
