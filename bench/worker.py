"""One measured pass over a workload's ops.

Usage: python3 bench/worker.py SPEC.json

SPEC names the ops file, the busy-time budget in seconds (null for none),
the number of rounds to stop after (null for all), whether to trace, the
package directory bdivkit must be imported from, and the results file.

Ops run as a closed loop with one client.  The worker imports
``bdivkit.cli`` once and forks a child per op, so every op starts from the
same state a command-line user's process has: modules loaded, program
caches cold, a fresh heap.  Without that, one op's leftovers (the shared
cone cache, the closure cache, a heap the collector has to walk) change the
cost of the next by up to a factor of three, and a run would measure its own
history more than its inputs.  In the child the op is one
``bdivkit.cli.main(argv)`` call with stdout and stderr captured, timed on
its own; its output is checked and, when tracing, its spans reduced, after
the timer stops.  The loop stops at the end of the round in which the busy
time reaches the budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import check


def _run_op(main, argv) -> tuple:
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is exit code 1 for a CLI user
        code = 1
        err.write(repr(exc))
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _op_in_child(main, op, tracer) -> dict:
    """Run one op in a forked child and return what it measured."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            dt, code, out, err = _run_op(main, op["argv"])
            res = {
                "dt": dt,
                "code": code,
                "why": check(op, code, out),
                "sha256": hashlib.sha256(f"{code}\n{out}\n".encode()).hexdigest(),
                "stderr": err[-500:],
                "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            if tracer is not None:
                res["trace"] = tracer.summary()
            with os.fdopen(write_fd, "w") as fh:
                json.dump(res, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"op child for {op['argv'][0]!r} exited with status {status}")
    return json.loads(data)


def _merge_trace(total: dict, part: dict) -> None:
    for name, agg in part["spans"].items():
        into = total["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in agg.items():
            into[key] += value
    for key, value in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + value


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    rounds = json.loads(Path(spec["ops"]).read_text())["rounds"]
    if spec["rounds"] is not None:
        rounds = rounds[: spec["rounds"]]

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import bdivkit.cli

    src = Path(bdivkit.cli.__file__).resolve().parent
    if src != Path(spec["package"]).resolve():
        raise SystemExit(f"imported bdivkit from {src}, expected {spec['package']}")
    cli_main = bdivkit.cli.main

    latencies = []
    failures = []
    digest = hashlib.sha256()
    trace = {"spans": {}, "counters": {}}
    peak_kib = 0
    busy = 0.0
    done_rounds = 0
    for r, ops in enumerate(rounds):
        for op in ops:
            res = _op_in_child(cli_main, op, tracer)
            busy += res["dt"]
            latencies.append(res["dt"])
            peak_kib = max(peak_kib, res["rss_kib"])
            if res["why"] is not None:
                failures.append({"argv": op["argv"][:1], "reason": res["why"],
                                 "stderr": res["stderr"]})
            if r == 0:
                digest.update(res["sha256"].encode())
            if tracer is not None:
                _merge_trace(trace, res["trace"])
        done_rounds += 1
        if spec["seconds"] is not None and busy >= spec["seconds"]:
            break

    result = {
        "latencies": latencies,
        "busy_s": busy,
        "rounds": done_rounds,
        "failures": failures,
        "first_round_sha256": digest.hexdigest(),
        "peak_rss_mib": peak_kib / 1024,
    }
    if tracer is not None:
        result["trace"] = trace
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
