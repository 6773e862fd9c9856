"""bdivkit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): reduce_cut and batch_small.  Each run generates its inputs from the seed alone, then
measures in fresh processes so every run starts with cold program caches:

* ``--trace 0`` runs the ops as a closed loop with one client for S seconds
  of busy time (finishing the round in progress) and reports the
  ``end_to_end`` metrics of BENCHMARK.json;
* ``--trace 1`` runs a fixed prefix of the same op stream twice, untraced
  and traced (``tracing.py``), and reports the ``per_layer`` metrics, whose
  counts then repeat exactly for a given seed, plus the traced/untraced wall
  ratio ``trace.overhead_ratio``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds details (tail
percentile, sample counts, a sha256 of the first round's outputs, nproc,
the Python version and ``src_lines``).  The process exits 2 when the
checkout holds no bdivkit sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracing import layer_metric  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "bdivkit"
WORK = ROOT / ".bench_work"

# The tail is the highest of p75 and p90 that keeps at least ten samples
# beyond it in a run of BENCHMARK.json's length on the commit that defined
# this benchmark.  It is fixed per workload so that a faster program, which
# completes more ops, reports the same percentile instead of a higher one.
TAIL_PERCENTILE = {"reduce_cut": 90, "batch_small": 90}

# Rounds replayed by a traced run; fixed so per-layer counts repeat exactly.
TRACE_ROUNDS = {"reduce_cut": 3, "batch_small": 12}

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bdivkit.cli\n"
    "bdivkit.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv, deadline: float, cwd: Path) -> str:
    """Run a child in its own process group and return its stdout.

    On timeout the whole group is killed, so the op the worker had forked
    ends with it, and the call returns only once the group is gone.
    """
    with subprocess.Popen(argv, env=_env(), cwd=cwd, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            for _ in range(100):
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return out


def measure_setup(deadline: float) -> list:
    """Seconds to import bdivkit.cli and build the parser, in fresh processes.

    The first child is not timed: it leaves compiled bytecode behind, as an
    installed package would have.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        samples.append(float(_child([sys.executable, "-c", SETUP_CODE], deadline, ROOT)))
    return samples[1:]


def run_worker(work: Path, tag: str, seconds, rounds, trace: bool, deadline: float) -> dict:
    spec = work / f"spec-{tag}.json"
    out = work / f"result-{tag}.json"
    spec.write_text(json.dumps({
        "ops": str(work / "ops.json"),
        "seconds": seconds,
        "rounds": rounds,
        "trace": trace,
        "package": str(PACKAGE),
        "out": str(out),
    }))
    _child([sys.executable, str(BENCH / "worker.py"), str(spec)], deadline, work)
    return json.loads(out.read_text())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, res: dict, setup: list) -> tuple:
    lat = sorted(res["latencies"])
    n = len(lat)
    failed = len(res["failures"])
    pct = TAIL_PERCENTILE[workload]
    rank = -(-pct * n // 100)  # nearest rank
    metrics = {
        "ops_per_s": _metric(n / res["busy_s"], "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": _metric(lat[max(rank, 1) - 1] * 1000, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mib": _metric(res["peak_rss_mib"], "MiB"),
        "pass_ratio": _metric((n - failed) / n, "ratio"),
    }
    detail = {
        "tail_percentile": pct,
        "samples": n,
        "samples_beyond_tail": n - rank,
        "fail_ratio": failed / n,
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_layer(names, traced: dict, plain: dict) -> dict:
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = _metric(traced["busy_s"] / plain["busy_s"], "ratio")
        else:
            metrics[name] = _metric(*layer_metric(traced["trace"], name))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (PACKAGE / "cli.py").is_file():
        print(f"no bdivkit sources under {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in benchmark["per_layer"]]

    inputs = generate(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "ops.json").write_text(json.dumps({"rounds": inputs["rounds"]}))
        for name, text in inputs["files"].items():
            (work / name).write_text(text)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "src_lines": src_lines(),
        }
        if args.trace:
            rounds = TRACE_ROUNDS[args.workload]
            plain = run_worker(work, "plain", None, rounds, False, deadline)
            res = run_worker(work, "traced", None, rounds, True, deadline)
            metrics = per_layer(layer_names, res, plain)
            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(res["trace"], indent=1, sort_keys=True))
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            failures = plain["failures"] + res["failures"]
        else:
            setup = measure_setup(deadline)
            res = run_worker(work, "run", args.seconds, None, False, deadline)
            metrics, more = end_to_end(args.workload, res, setup)
            detail.update(more)
            detail["exhausted_inputs"] = (
                res["rounds"] == len(inputs["rounds"]) and res["busy_s"] < args.seconds
            )
            failures = res["failures"]
        detail["rounds"] = res["rounds"]
        detail["first_round_sha256"] = res["first_round_sha256"]
        detail["failures"] = failures[:5]
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its time limit", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"benchmark child failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(res["latencies"])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(res["failures"]),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
