#!/usr/bin/env python3
"""Run one workload of the edgellm wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package under
$CARGO_TARGET_DIR (default `.bench_build`), then:

* `--trace 0`: runs the plain build and reports the end-to-end metrics;
* `--trace 1`: also builds it with the `trace` feature, which compiles the
  tensor kernel counters in, into `<target>/traced`. Runs the plain build
  on the fixed digest work, then the traced build for `--seconds`; reports
  the per-layer metrics, checks the two output digests are equal and
  reports `trace.overhead` (traced wall time of the digest work over
  plain wall time).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero without a
result when the repository sources are missing or a step fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
PACKAGE = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PACKAGE / "Cargo.toml"),
           "--target-dir", str(target_dir)]
    if traced:
        cmd += ["--features", "trace"]
    # Cargo's own output goes to stderr so the result stays the last
    # line of stdout.
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return target_dir / "release" / "perfbench"


def run(binary, args, env, fixed=False):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if fixed:
        cmd.append("--fixed")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "crates" / "nn" / "Cargo.toml").is_file():
        fail("run from the repository root: the crates/ sources are missing")
    # The binary checks the workload name.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    plain = build(target, traced=False)

    # One worker thread: on a shared two-core host a second thread's speed
    # depends on whatever else holds the other core, which made two-thread
    # throughput swing by half between otherwise identical runs. The
    # thread count is recorded in the info line below.
    env = dict(os.environ, EDGELLM_THREADS="1")

    errors = []
    if args.trace == 0:
        res = run(plain, args, env)
        wanted = spec["end_to_end"]
    else:
        traced = build(target / "traced", traced=True)
        base = run(plain, args, env, fixed=True)
        res = run(traced, args, env)
        wanted = spec["per_layer"]
        errors += [f"plain digest run: {e}" for e in base["errors"]]
        if base["digest"] != res["digest"]:
            errors.append(f"traced digest {res['digest']} != plain {base['digest']}")
        overhead = res["digest_wall_s"] / base["digest_wall_s"]
        res["metrics"]["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    errors += res["errors"]

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} not reported")
        elif got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} in {got['unit']}, declared {m['unit']}")
        else:
            metrics[m["name"]] = got
    extra = set(res["metrics"]) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    info = {k: res[k] for k in ("workload", "seed", "threads", "traced", "attempted",
                                "completed", "failed", "digest", "digest_wall_s",
                                "host_scale", "raw")}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
