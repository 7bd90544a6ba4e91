#!/usr/bin/env python3
"""End-to-end certified-planning benchmark.

    python3 e2e_bench/run.py --workload orion_plan|ads_plan|service_stream \
        --seed N --seconds S --trace 0|1

Builds the planner and the runner from source into .bench_build/, runs the
workload in a fresh runner process (never two configurations in one
process), checks every answer, and prints the metrics as the last line of
stdout:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics of an untraced run; setup_s is the
median of the cold set-ups of SETUP_PROCESSES fresh processes, the measured
one included. Every timing is in reference seconds: scaled by PROBE_REF_S
over the runner's host probe (runner/host_probe.hpp) over the same interval,
so a core slowed by another tenant does not read as a slower program. --trace 1 runs the untraced process too, then replays the
workload's deterministic session set through the traced composition in
another process, and prints the per-layer metrics, including the tracing
overhead between the two (on service_stream, against an untraced replay of
the same sessions in a third process). The line before the
result is a stamp of the host and configuration. NOTES.md documents the
workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
STATE_DIR = os.path.join(ROOT, ".bench_build", "e2e_state")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "e2e_results")
TMP_ROOT = os.path.join(ROOT, ".bench_build", "tmp")
RUNNER = os.path.join(BUILD_DIR, "nptsn_e2e")

WORKLOADS = ("orion_plan", "ads_plan", "service_stream")
# Cold set-ups per run, each in its own fresh process: the measured run's and
# SETUP_PROCESSES - 1 set-up-only processes. setup_s is their median.
SETUP_PROCESSES = 5
TAIL_PERCENTILE = 0.90
# The host probe's burst time on an uncontended core of a 2.0 GHz x86-64 Xeon
# (the floor of its bursts there, rounded). A timing t measured while the
# bursts took probe_s reads t * PROBE_REF_S / probe_s.
PROBE_REF_S = 0.008
TAIL_SESSIONS = 100  # sessions a run needs for ten beyond TAIL_PERCENTILE
# Logical counts of the traced replay that must repeat exactly across runs
# of one seed.
EXACT_COUNTS = ("core.env_steps", "analysis.nbf_calls", "analysis.nbf_executed",
                "tsn.nbf_recovers")
# Every runner process of one run must end within this many seconds of its
# start, so the run exits inside 180 s.
RUN_BUDGET_S = 165

END_TO_END_UNITS = {
    "session_p50_s": "s",
    "session_p90_s": "s",
    "sessions_per_s": "1/s",
    "mean_cost": "cost",
    "certified_ratio": "ratio",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "rl.update_s": "s",
    "rl.update_share": "ratio",
    "rl.rollout_s": "s",
    "rl.policy_s": "s",
    "core.env_step_s": "s",
    "core.env_steps": "count",
    "core.env_step_self_s": "s",
    "core.observe_s": "s",
    "core.observes": "count",
    "core.episodes": "count",
    "core.session_setup_s": "s",
    "analysis.verify_s": "s",
    "analysis.nbf_calls": "count",
    "analysis.nbf_executed": "count",
    "analysis.exec_ratio": "ratio",
    "analysis.memo_hits": "count",
    "analysis.residual_reuses": "count",
    "analysis.shared_hits": "count",
    "tsn.nbf_recover_s": "s",
    "tsn.nbf_recovers": "count",
    "tsn.nbf_stage_s": "s",
    "tsn.nbf_stages": "count",
    "analysis.certificate_s": "s",
    "analysis.audit_s": "s",
    "analysis.shared_verdict_hit_ratio": "ratio",
    "analysis.shared_outcome_hit_ratio": "ratio",
    "analysis.shared_cache_mb": "MB",
    "nn.stage_cache_hit_ratio": "ratio",
    "service.submit_s": "s",
    "service.queue_s": "s",
    "service.plan_s": "s",
    "service.journal_appends": "count",
    "service.retried": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build failure, runner fault)."""


def log(message):
    print(f"[e2e_bench] {message}", file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------------

def build(targets=("nptsn_e2e",)):
    """Configures (once) and builds the runner from the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no NPTSN source tree at {ROOT}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1), "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# --- runner processes ------------------------------------------------------------

class Process:
    """Events of one runner process, parsed from its JSON lines."""

    def __init__(self, lines, returncode):
        self.returncode = returncode
        self.events = []
        for line in lines:
            line = line.strip()
            if line.startswith("{"):
                try:
                    self.events.append(json.loads(line))
                except json.JSONDecodeError:
                    pass  # a line torn by a crash

    def of(self, kind):
        return [e for e in self.events if e.get("event") == kind]

    def one(self, kind):
        found = self.of(kind)
        return found[-1] if found else None

    @property
    def crashed(self):
        return self.returncode != 0


def run_process(args, deadline):
    """Runs the runner, killing it at `deadline` (time.monotonic())."""
    timeout = max(deadline - time.monotonic(), 1.0)
    command = [RUNNER, *args]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"runner timed out after {timeout} s: {' '.join(args[:3])}")
        return Process(out.splitlines(), returncode=-9)
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM via main's handler): never leave the
        # runner behind.
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        log(f"runner exited with {proc.returncode}: {' '.join(args[:3])}")
    return Process(out.splitlines(), proc.returncode)


# --- statistics --------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, math.ceil(p * len(ordered)) - 1)
    return ordered[rank]


def tail_applies(sessions):
    return sessions >= TAIL_SESSIONS


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- correctness -------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
            log(f"CHECK FAILED: {message}")
        return ok

    @property
    def ok(self):
        return not self.failures


def instance_digests(sessions, checks, what):
    """instance -> digest; every session of an instance must agree."""
    digests = {}
    for s in sessions:
        if s.get("status") == "failed":
            continue
        first = digests.setdefault(s["instance"], s["digest"])
        checks.require(first == s["digest"],
                       f"{what}: {s['instance']} answered {s['digest']} after {first}")
    return digests


def check_untraced(run, checks):
    sessions = run.of("session")
    digests = instance_digests(sessions, checks, "repeat of one input")
    verdicts = {e["digest"]: e for e in run.of("reaudit")}
    for s in sessions:
        if s["status"] != "planned":
            continue
        verdict = verdicts.get(s["digest"])
        if verdict is None:
            # A crash before the re-audit loses the session (see accounting).
            checks.require(run.crashed,
                           f"session {s['index']}: certificate {s['digest']} was not re-audited")
        else:
            checks.require(verdict["clean"],
                           f"session {s['index']}: re-audit rejected the certificate: "
                           f"{verdict['why']}")
    return digests


def binary_identity():
    digest = hashlib.sha256()
    with open(RUNNER, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_across_runs(workload, seed, digests, counts, checks):
    """Compares answers and logical counts with earlier runs of this seed on
    this build, then records them."""
    directory = os.path.join(STATE_DIR, binary_identity())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-{seed}.json")
    state = {"digests": {}, "counts": {}}
    if os.path.isfile(path):
        with open(path) as f:
            state = json.load(f)
    for key, value in digests.items():
        before = state["digests"].setdefault(key, value)
        checks.require(before == value,
                       f"{key}: answer {value} differs from an earlier run of seed {seed} "
                       f"({before})")
    for key, value in counts.items():
        before = state["counts"].setdefault(key, value)
        checks.require(before == value,
                       f"{key} = {value} differs from an earlier run of seed {seed} ({before})")
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


# --- metrics -----------------------------------------------------------------------

def accounting(run):
    """(attempted, failed, completed sessions) of an untraced run. Failed are
    sessions the service faulted, shed or cancelled, and sessions lost to a
    crashed runner: begun but never reported, or certified but never
    re-audited because the process died first. Nothing is retried."""
    attempted = len(run.of("begin"))
    audited = {e["digest"] for e in run.of("reaudit")}
    done = [s for s in run.of("session")
            if s["status"] != "failed"
            and (s["status"] != "planned" or s["digest"] in audited)]
    return attempted, attempted - len(done), done


def reference_seconds(seconds, probe_s):
    return seconds * PROBE_REF_S / probe_s


def raw_end_to_end(run):
    """(p50, p90, sessions/s) as measured, before the host-speed scaling."""
    _, _, done = accounting(run)
    if not done:
        raise BenchError("the runner completed no session")
    latencies = [s["latency_s"] for s in done]
    summary = run.one("summary")
    window = summary["window_s"] if summary else sum(latencies)
    # Where the run is too short for a tail, the median stands in, and
    # measure() lists the metric as not applicable in the stamp.
    tail = (percentile(latencies, TAIL_PERCENTILE) if tail_applies(len(latencies))
            else statistics.median(latencies))
    return statistics.median(latencies), tail, len(done) / window


def window_probe_s(run):
    # A runner that died before its summary leaves only its set-up's probe.
    return (run.one("summary") or run.one("setup"))["probe_s"]


def end_to_end_metrics(run, setups):
    """setups: (seconds, probe_s) of every cold set-up of the run."""
    attempted, _, done = accounting(run)
    p50, p90, rate = raw_end_to_end(run)
    probe = window_probe_s(run)
    clean = {e["digest"] for e in run.of("reaudit") if e["clean"]}
    certified = [s for s in done if s["status"] == "planned" and s["digest"] in clean]
    costs = {s["instance"]: s["cost"] for s in certified}
    # Session lines carry the peak so far, in case the process died before
    # its summary.
    peak = max(e["peak_rss_mb"] for e in run.events if "peak_rss_mb" in e)
    return {
        "session_p50_s": reference_seconds(p50, probe),
        "session_p90_s": reference_seconds(p90, probe),
        "sessions_per_s": rate / reference_seconds(1.0, probe),
        "mean_cost": statistics.fmean(costs.values()) if costs else 0.0,
        "certified_ratio": len(certified) / attempted,
        "completed_ratio": len(done) / attempted,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(reference_seconds(*setup) for setup in setups),
    }


def per_layer_metrics(run, traced, replay):
    t = traced.one("trace_summary")
    n = t["sessions"]
    env_s = t["env_step_s"] + t["observe_s"] + t["reset_s"]
    metrics = {
        "rl.update_s": t["update_s"] / n,
        "rl.update_share": t["update_s"] / t["wall_s"],
        "rl.rollout_s": t["rollout_s"] / n,
        "rl.policy_s": (t["rollout_s"] - env_s) / n,
        "core.env_step_s": t["env_step_s"] / n,
        "core.env_steps": t["env_steps"],
        "core.env_step_self_s": (t["env_step_s"] - t["step_verify_s"]) / n,
        "core.observe_s": t["observe_s"] / n,
        "core.observes": t["observes"],
        "core.episodes": t["episodes"],
        "core.session_setup_s": t["session_setup_s"] / n,
        "analysis.verify_s": t["verify_s"] / n,
        "analysis.nbf_calls": t["nbf_calls"],
        "analysis.nbf_executed": t["nbf_executed"],
        "analysis.exec_ratio": ratio(t["nbf_executed"], t["nbf_calls"]),
        "analysis.memo_hits": t["memo_hits"],
        "analysis.residual_reuses": t["residual_reuses"],
        "analysis.shared_hits": t["shared_hits"],
        "tsn.nbf_recover_s": t["nbf_recover_s"] / n,
        "tsn.nbf_recovers": t["nbf_recovers"],
        "tsn.nbf_stage_s": t["nbf_stage_s"] / n,
        "tsn.nbf_stages": t["nbf_stages"],
        "analysis.certificate_s": t["certificate_s"] / n,
        "analysis.audit_s": t["audit_s"] / n,
        "trace.unattributed_s": t["unattributed_s"] / n,
    }

    # Service layer, from the untraced run's public surface. The plan
    # workloads never reach it and report 0.
    summary = run.one("summary") or {}
    _, _, done = accounting(run)
    service = [s for s in done if "plan_s" in s]
    metrics.update({
        "analysis.shared_verdict_hit_ratio": ratio(
            summary.get("verdict_hits", 0),
            summary.get("verdict_hits", 0) + summary.get("verdict_misses", 0)),
        "analysis.shared_outcome_hit_ratio": ratio(
            summary.get("outcome_hits", 0),
            summary.get("outcome_hits", 0) + summary.get("outcome_misses", 0)),
        "analysis.shared_cache_mb": summary.get("shared_cache_bytes", 0) / (1 << 20),
        "nn.stage_cache_hit_ratio": ratio(
            summary.get("stage_hits", 0),
            summary.get("stage_hits", 0) + summary.get("stage_misses", 0)),
        "service.submit_s": statistics.fmean(s["submit_s"] for s in service) if service else 0.0,
        "service.queue_s": statistics.fmean(s["queue_s"] for s in service) if service else 0.0,
        "service.plan_s": statistics.fmean(s["plan_s"] for s in service) if service else 0.0,
        "service.journal_appends": ratio(summary.get("journal_appends", 0), len(service)),
        "service.retried": summary.get("retried", 0),
    })

    # Tracing overhead: traced wall time over the untraced plan() time of the
    # same sessions, both run one at a time. Plan workloads compare per input
    # against the median of its untraced sessions. The service stream ran two
    # sessions at once, so it compares position by position against the
    # untraced replay, which differs from the traced one only by tracing.
    if replay is not None:
        untraced = {s["index"]: s["wall_s"] for s in replay.of("replayed")}
    else:
        by_instance = {}
        for s in done:
            by_instance.setdefault(s["instance"], []).append(s["latency_s"])
        untraced = {k: statistics.median(v) for k, v in by_instance.items()}
    traced_sum = untraced_sum = 0.0
    for s in traced.of("traced"):
        key = s["index"] if replay is not None else s["instance"]
        if key in untraced:
            traced_sum += s["wall_s"]
            untraced_sum += untraced[key]
    metrics["trace.overhead_ratio"] = ratio(traced_sum, untraced_sum)
    return metrics


def check_traced(run, traced, replay, digests, checks):
    """The traced composition must answer exactly like plan()/the service,
    and like the untraced replay session by session."""
    untraced_steps = {s["instance"]: s.get("env_steps") for s in run.of("session")}
    for s in traced.of("traced"):
        expected = digests.get(s["instance"])
        if expected is not None:
            checks.require(s["digest"] == expected,
                           f"traced {s['instance']} answered {s['digest']}, "
                           f"untraced {expected}")
        steps = untraced_steps.get(s["instance"])
        if steps is not None:
            checks.require(s["env_steps"] == steps,
                           f"traced {s['instance']} stepped {s['env_steps']} times, "
                           f"plan() {steps}")
    if replay is not None:
        replayed = {s["index"]: s["digest"] for s in replay.of("replayed")}
        traced_sessions = traced.of("traced")
        checks.require(len(replayed) == len(traced_sessions),
                       f"the untraced replay ran {len(replayed)} sessions, "
                       f"the traced one {len(traced_sessions)}")
        for s in traced_sessions:
            checks.require(replayed.get(s["index"]) == s["digest"],
                           f"traced session {s['index']} answered {s['digest']}, "
                           f"untraced replay {replayed.get(s['index'])}")
    return instance_digests(traced.of("traced"), checks, "traced repeat of one input")


# --- main --------------------------------------------------------------------------

def host_stamp(args, run):
    runner_stamp = dict(run.one("stamp") or {})
    runner_stamp.pop("event", None)
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "host": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_processes": SETUP_PROCESSES,
        "tail_percentile": TAIL_PERCENTILE,
        "probe_ref_s": PROBE_REF_S,
        **runner_stamp,
    }


def cold_setups(base, tmp, deadline):
    """(seconds, probe_s) of SETUP_PROCESSES - 1 set-up-only runner processes."""
    setups = []
    for k in range(SETUP_PROCESSES - 1):
        process = run_process(["setup", *base, "--tmp", os.path.join(tmp, f"setup-{k}")],
                              deadline)
        setup = process.one("setup")
        if process.crashed or setup is None:
            raise BenchError("a set-up process failed")
        setups.append((setup["seconds"], setup["probe_s"]))
    return setups


def measure(args, tmp, deadline):
    checks = Checks()
    not_applicable = {}
    stamp_extra = {}
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    # setup_s is an end-to-end metric: the traced run needs no set-up probes.
    setups = [] if args.trace else cold_setups(base, tmp, deadline)
    run = run_process(["run", *base, "--tmp", os.path.join(tmp, "run"),
                       "--seconds", str(args.seconds)], deadline)
    attempted, failed, _ = accounting(run)
    digests = check_untraced(run, checks)

    if args.trace:
        replay = None
        if args.workload == "service_stream":
            replay = run_process(["replay", *base], deadline)
            if replay.crashed:
                raise BenchError("the untraced replay did not finish")
        traced = run_process(["trace", *base], deadline)
        if traced.one("trace_summary") is None:
            raise BenchError("the traced replay did not finish")
        traced_digests = check_traced(run, traced, replay, digests, checks)
        metrics = per_layer_metrics(run, traced, replay)
        counts = {key: metrics[key] for key in EXACT_COUNTS}
        check_across_runs(args.workload, args.seed, traced_digests, counts, checks)
        units = PER_LAYER_UNITS
    else:
        setup = run.one("setup")
        if setup is None:
            raise BenchError("the runner did not set up")
        setups = [(setup["seconds"], setup["probe_s"]), *setups]
        metrics = end_to_end_metrics(run, setups)
        p50, p90, rate = raw_end_to_end(run)
        stamp_extra["measured"] = {
            "session_p50_s": p50, "session_p90_s": p90, "sessions_per_s": rate,
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "window_probe_s": window_probe_s(run),
            "setup_probe_s": [probe for _, probe in setups],
        }
        if not tail_applies(len(accounting(run)[2])):
            not_applicable["session_p90_s"] = (
                f"fewer than {TAIL_SESSIONS} sessions: "
                "the value is session_p50_s")
        check_across_runs(args.workload, args.seed, digests, {}, checks)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        checks.require(isinstance(value, (int, float)) and math.isfinite(value),
                       f"metric {name} is not a finite number: {value}")
    result = {
        "correct": checks.ok,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stamp = host_stamp(args, run)
    stamp.update(stamp_extra)
    if not_applicable:
        stamp["not_applicable"] = not_applicable
    return result, stamp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp = os.path.join(TMP_ROOT, str(os.getpid()))
    try:
        build()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        started = time.monotonic()
        result, stamp = measure(args, tmp, started + RUN_BUDGET_S)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stamp["bench_seconds"] = time.monotonic() - started
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
