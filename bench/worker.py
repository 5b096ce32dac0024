"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py``, one child per workload run:

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --workdir DIR --setup-only

Set-up is timed from the first line of this file (before numpy and
quadproto are imported) to the end of building the workload's inputs.
Then one warm-up pass runs, and its outputs are checked.  Timed passes
follow until ``--seconds`` have elapsed; each must reproduce the checked
pass's outputs exactly.  With ``--trace 1`` untraced and traced passes
alternate, so the trace overhead is measured on the same inputs in the same
process under the same host load.

Every time is scaled to the host's reference speed (see ``HostSpeed``).
``wall_s`` is the time of one pass with each operation at its lower-quartile
latency over the timed passes, and ``op_p50_ms`` the median over the
operations of those latencies.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

PROBE_REF_S = 0.87e-3   # probe time on the reference machine when undisturbed
PROBE_GAP_S = 0.02      # the probe runs between operations at most this often


def probe_once() -> float:
    """Time a fixed kernel shaped like quadproto's inner loops."""
    import numpy as np
    vec = np.arange(16, dtype=complex) / 16
    start = perf_counter()
    acc = 0.0
    for i in range(40):
        t = vec.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(-1)
        acc += abs(np.vdot(t, vec)) + np.kron(vec[:2], vec[2:4]).real.sum()
        acc += len({j: (j, i) for j in range(8)})
    return perf_counter() - start


class HostSpeed:
    """How fast the host runs right now, from a probe timed between operations.

    On a shared host, other load slows this process by up to 1.8x for
    seconds to minutes at a time, in its CPU time as much as in its wall
    time.  The probe slows with it (README.md gives the correlation), so
    scaling each latency by PROBE_REF_S over the probe times around it
    removes most of that load from the figures.
    """

    def __init__(self) -> None:
        self.sample()

    def sample(self) -> None:
        self.value = probe_once()
        self.at = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self.at >= PROBE_GAP_S:
            self.sample()

    def reference_median(self, seconds: float, samples: int = 5) -> float:
        """``seconds`` scaled by the median of fresh probe samples."""
        probe_once()  # the first call pays numpy's lazy set-up
        return seconds * PROBE_REF_S / statistics.median(
            probe_once() for _ in range(samples))


def run_pass(ops, counts, host):
    """Run every operation once.

    Returns (payloads, raw latencies, latencies scaled to reference speed).
    """
    payloads, raw, scaled = [], [], []
    host.sample()
    for op in ops:
        before = host.value
        t = perf_counter()
        try:
            ok, payload = op.run()
        except Exception:  # an operation that raises counts as failed
            sys.stderr.write("operation %s raised:\n%s" % (op.name, traceback.format_exc()))
            ok, payload = False, None
        latency = perf_counter() - t
        host.sample_if_due()
        raw.append(latency)
        scaled.append(latency * 2 * PROBE_REF_S / (before + host.value))
        counts["attempted"] += 1
        counts["failed"] += not ok
        payloads.append(payload)
    return payloads, raw, scaled


def timed_passes(ops, reference, seconds, counts, errors, host, between=None):
    """Whole passes until ``seconds`` have elapsed.

    Returns the raw and the scaled latencies of each pass.  ``between(i)``
    runs untimed before pass ``i``.
    """
    raw, scaled = [], []
    start = perf_counter()
    while not raw or perf_counter() - start < seconds:
        if between:
            between(len(raw))
        payloads, pass_raw, pass_scaled = run_pass(ops, counts, host)
        raw.append(pass_raw)
        scaled.append(pass_scaled)
        if payloads != reference:
            errors.append("pass %d outputs differ from the checked pass" % len(raw))
    return raw, scaled


def per_op_lower_quartiles(passes):
    """Each operation's lower-quartile latency over the passes.

    Scaling removes most, not all, of the host's load; what remains only
    ever slows an operation, and the lower quartile moves less under it than
    the median does (README.md).
    """
    if len(passes) == 1:
        return list(passes[0])
    return [statistics.quantiles(column, n=4, method="inclusive")[0]
            for column in zip(*passes)]


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    if workloads.qp.__file__ != os.path.join(ROOT, "src", "quadproto", "__init__.py"):
        raise SystemExit("quadproto was not imported from this checkout")
    if args.workload == "cli_mix":
        wl = workloads.CliMix(args.seed, args.workdir)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    raw_setup_s = perf_counter() - T0
    host = HostSpeed()
    out = {"setup_s": host.reference_median(raw_setup_s), "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ops = wl.ops()
    counts = {"attempted": 0, "failed": 0}
    reference, warm_raw, _ = run_pass(ops, counts, host)
    errors = wl.check(reference)
    counts = {"attempted": 0, "failed": 0}
    out["raw_warmup_s"] = sum(warm_raw)

    if args.trace:
        # traced and untraced passes alternate, so both meet the same host load
        from tracer import Tracer, merge, per_pass_metrics
        tracer = Tracer()

        def toggle(i):
            if args.workload == "cli_mix":
                wl.trace_into(os.path.join(args.workdir, "trace.json") if i % 2 else None)
            elif i % 2:
                tracer.install()
            else:
                tracer.uninstall()

        _, passes = timed_passes(ops, reference, args.seconds, counts, errors, host, toggle)
        if len(passes) % 2:  # a whole number of pairs
            passes += timed_passes(ops, reference, 0, counts, errors, host,
                                   lambda i: toggle(len(passes)))[1]
        tracer.uninstall()
        snap = tracer.snapshot()
        if args.workload == "cli_mix":
            snap = merge(json.loads(text) for text in wl.trace_files)
        out["layers"] = per_pass_metrics(snap, len(passes) // 2)
        out["untraced_wall_s"] = sum(per_op_lower_quartiles(passes[0::2]))
        out["traced_wall_s"] = sum(per_op_lower_quartiles(passes[1::2]))
    else:
        raw, scaled = timed_passes(ops, reference, args.seconds, counts, errors, host)
        typical = per_op_lower_quartiles(scaled)
        latencies = [t for lat in raw for t in lat]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF
        out.update(
            wall_s=sum(typical),
            op_p50_ms=1e3 * statistics.median(typical),
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            passes=len(raw),
            ops=len(latencies),
            raw_pass_s=statistics.median(sum(lat) for lat in raw),
            raw_p50_ms=1e3 * statistics.median(latencies),
            raw_p95_ms=(1e3 * percentile(latencies, 0.95)
                        if len(latencies) >= 200 else None),
        )
    out.update(counts, correct=not errors, errors=errors[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
