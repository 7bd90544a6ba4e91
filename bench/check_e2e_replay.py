#!/usr/bin/env python3
"""Gate: the seed-1 end-to-end replays still plan the committed bits.

    python3 bench/check_e2e_replay.py RUNNER EXPECTED [FRESH]

Runs `RUNNER trace --workload W --seed 1` (RUNNER is the end-to-end benchmark
runner, .bench_build/cmake/nptsn_e2e) for every workload in EXPECTED
(bench/results/e2e_replay_seed1.json) and compares each session's plan digest
and the replay's logical counts with the committed ones. Exits 1 naming every
session or count that differs, 0 when all agree. FRESH, when given, receives
the replays in EXPECTED's format: copy it over EXPECTED only when a change
means to alter what the planner computes.

The digests hash plans, not weights, so every kernel configuration
(NPTSN_KERNEL_SIMD on or off, either ISA table) must read the same ones.
"""
import json
import subprocess
import sys

COUNTS = ("env_steps", "nbf_calls", "nbf_executed", "nbf_recovers")


def replay(runner, workload, seed):
    out = subprocess.run([runner, "trace", "--workload", workload, "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    events = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    summary = [e for e in events if e["event"] == "trace_summary"]
    if len(summary) != 1:
        sys.exit(f"{workload}: expected one trace_summary, got {len(summary)}")
    return {
        "counts": {key: summary[0][key] for key in COUNTS},
        "sessions": [{"index": e["index"], "instance": e["instance"], "digest": e["digest"]}
                     for e in events if e["event"] == "traced"],
    }


def differences(workload, expected, fresh):
    found = []
    for key in COUNTS:
        if fresh["counts"][key] != expected["counts"][key]:
            found.append(f"{workload}: {key} {fresh['counts'][key]}, "
                         f"committed {expected['counts'][key]}")
    if len(fresh["sessions"]) != len(expected["sessions"]):
        found.append(f"{workload}: {len(fresh['sessions'])} sessions, "
                     f"committed {len(expected['sessions'])}")
    for want, got in zip(expected["sessions"], fresh["sessions"]):
        if want != got:
            found.append(f"{workload}: session {want['index']} ({want['instance']}) planned "
                         f"{got['digest']} ({got['instance']}), committed {want['digest']}")
    return found


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    runner, expected_path = argv[1], argv[2]
    with open(expected_path) as f:
        expected = json.load(f)
    seed = expected["seed"]
    fresh = {"seed": seed, "workloads": {}}
    found = []
    for workload, want in expected["workloads"].items():
        fresh["workloads"][workload] = replay(runner, workload, seed)
        found += differences(workload, want, fresh["workloads"][workload])
    if len(argv) == 4:
        with open(argv[3], "w") as f:
            json.dump(fresh, f, indent=2)
            f.write("\n")
    for line in found:
        print(line)
    if found:
        return 1
    sessions = sum(len(w["sessions"]) for w in expected["workloads"].values())
    print(f"all {sessions} seed-{seed} replay digests and the logical counts equal "
          f"{expected_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
