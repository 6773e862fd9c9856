"""Hash what bdivkit prints for a fixed set of inputs, in one process.

Usage: python3 tools/outputs.py TARGET...

Each TARGET is one of
  WORKLOAD:SEED  every op that the benchmark's ``workloads.generate`` makes
                 for that workload and seed (reduce_cut, batch_small);
  WORKLOAD:SEED:ROUNDS  the ops of its first ROUNDS rounds only;
  surface        ``reduce`` on every model (c, 1), c in 1/2, 2/3, 3/4, with
                 B = 0 at one primitive (a, b) in [1, 12]^2: 273 inputs;
  threefold      ``reduce`` on every model (c, 1, 1), c as above, with two
                 deviations: a pair of the 16 primitive vectors of [0, 2]^3
                 with at least two nonzero entries, each with a value in
                 0, 1/3, 1/2: 3,240 inputs;
  wide           ``reduce`` on the models (c, 1, 1) for c in 0, 5/6, 1,
                 (1, 1/2, 1) and (1/2, 1, 1/2) with every pair of those 16
                 vectors, valued 0 or 1/2 (2,400 inputs); 1,000 seeded
                 random threefolds with up to three coefficient-one
                 components and three deviations; and 600 seeded random
                 fourfolds, 300 fivefolds and 200 sixfolds, each with two
                 or three coefficient-one components and two or three
                 deviations: 4,500 inputs;
  weights        ``weight --verify`` on every model of n = 2 with
                 coefficients in 0, 1/2, 2/3, 1 and one or two deviations,
                 and of n = 3 with coefficients in 1/2, 1 (in every order)
                 and one deviation; deviations are primitive vectors of
                 [0, 2]^n with at least two nonzero entries, valued 0 or
                 1/2; each input once without --stratum and once per
                 nonempty stratum: 3,200 inputs;
  sets           ``chain --verify`` at lengths 1, 2 and 4 and the
                 denominator bounds 1, 2, 6 and 30, and ``dcc --verify``
                 once with each length as ``--threshold``, on finite sets of
                 k/q values, some with q past the bound, the standard set,
                 closures of two to four values with q <= 12 (each with and
                 without 1 listed in the base, under their own bounds 12 and
                 30), of {1/2, 2/3, 6/7} and {1/2, 2/3, 3/4} at 200, of the
                 standard set at 12, 2000 and 4000, of a union holding it
                 and of its closure at 12, and unions; and
                 ``closure --verify`` on every finite and closure base at
                 those four bounds; and ``chain --verify`` on two closures
                 past the size cap, of {1/2, 19999/20000} at 20000 (length
                 3) and of the 389 values (p-1)/p for the largest primes p
                 below 30,000 at 30000 (length 5): 534 inputs.

Every input runs through ``bdivkit.cli.main`` in this process, with the
package imported from PYTHONPATH.  The tool prints one sha256 over the argv,
exit code, stdout and stderr of every input in order, then one such sha256
per target, the count per exit code with the first few argv of each nonzero
code, and the wall time.  Two builds print equal digests exactly when they
answer every input alike, so a change that must not alter any output quotes
the digest at both, and a change meant to alter one target shows by the
per-target digests that the others are unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from itertools import combinations, product
from math import gcd, isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, generate  # noqa: E402

from bdivkit.cli import main  # noqa: E402

COEFFS = ("1/2", "2/3", "3/4")
SHOWN = 5  # argv listed per nonzero exit code


def _argv(command, coeffs, deviations) -> list:
    return [
        command,
        "--model", json.dumps({"n": len(coeffs), "coeffs": list(coeffs)}),
        "--B", json.dumps({"deviations": [{"v": list(v), "value": x} for v, x in deviations]}),
    ]


def _primitive_vectors(n) -> list:
    """The primitive vectors of [0, 2]^n with at least two nonzero entries."""
    return [
        v for v in product(range(3), repeat=n)
        if sum(map(bool, v)) >= 2 and gcd(*v) == 1
    ]


def surface_census() -> list:
    """The 273 argv of the surface census, in a fixed order."""
    points = [(a, b) for a in range(1, 13) for b in range(1, 13) if gcd(a, b) == 1]
    return [_argv("reduce", (c, "1"), [(v, "0")]) for c in COEFFS for v in points]


def threefold_census() -> list:
    """The 3,240 argv of the threefold census, in a fixed order."""
    vecs = _primitive_vectors(3)
    values = ("0", "1/3", "1/2")
    return [
        _argv("reduce", (c, "1", "1"), [(v, x), (w, y)])
        for c in COEFFS
        for v, w in combinations(vecs, 2)
        for x, y in product(values, repeat=2)
    ]


def weights_census() -> list:
    """The 3,200 argv of the weights census, in a fixed order."""
    values = ("0", "1/2")
    inputs = []
    vecs = _primitive_vectors(2)
    for coeffs in product(("0", "1/2", "2/3", "1"), repeat=2):
        for k in (1, 2):
            for chosen in combinations(vecs, k):
                for xs in product(values, repeat=k):
                    inputs.append((coeffs, list(zip(chosen, xs))))
    vecs = _primitive_vectors(3)
    for coeffs in product(("1/2", "1"), repeat=3):
        for v in vecs:
            for x in values:
                inputs.append((coeffs, [(v, x)]))
    argvs = []
    for coeffs, deviations in inputs:
        argv = _argv("weight", coeffs, deviations) + ["--verify"]
        n = len(coeffs)
        argvs.append(argv)
        argvs.extend(
            argv + ["--stratum", json.dumps([i + 1 for i in range(n) if mask >> i & 1])]
            for mask in range(1, 1 << n)
        )
    return argvs


def _random_reduce(rng, n, ones, count) -> list:
    """``reduce`` on a model of n components, ``ones`` of them with
    coefficient 1 placed at random, and ``count`` random deviations: primitive
    vectors with at least two nonzero entries, each entry in [0, 3] where the
    coefficient is 1 and in [0, 1] elsewhere, so that most have positive
    pullback."""
    coeffs = [rng.choice(("0", "1/2", "2/3", "5/6")) for _ in range(n - ones)]
    for _ in range(ones):
        coeffs.insert(rng.randrange(len(coeffs) + 1), "1")
    deviations = {}
    while len(deviations) < count:
        v = tuple(rng.randrange(4 if c == "1" else 2) for c in coeffs)
        if sum(map(bool, v)) >= 2 and gcd(*v) == 1:
            deviations[v] = rng.choice(("0", "1/3", "1/2", "5/6"))
    return _argv("reduce", coeffs, sorted(deviations.items()))


def wide_census() -> list:
    """The 4,500 argv of the wide census, in a fixed order."""
    vecs = _primitive_vectors(3)
    models = [(c, "1", "1") for c in ("0", "5/6", "1")] + [("1", "1/2", "1"), ("1/2", "1", "1/2")]
    argvs = [
        _argv("reduce", coeffs, [(v, x), (w, y)])
        for coeffs in models
        for v, w in combinations(vecs, 2)
        for x, y in product(("0", "1/2"), repeat=2)
    ]
    rng = random.Random(31)
    argvs += [_random_reduce(rng, 3, rng.randrange(4), 3) for _ in range(1000)]
    argvs += [_random_reduce(rng, 4, rng.choice((2, 3)), rng.choice((2, 3)))
              for _ in range(600)]
    rng = random.Random(2026)
    argvs += [_random_reduce(rng, n, rng.choice((2, 3)), rng.choice((2, 3)))
              for n, count in ((5, 300), (6, 200)) for _ in range(count)]
    return argvs


# finite sets of k/q values, most with a q past the smaller bounds
FINITE = (["1/2", "1/3"], ["1/2", "2/3", "5/6"], ["0", "1/4", "3/4", "1"], ["1/7", "3/7", "6/7"],
          ["1/3", "2/5", "7/12", "29/30"])
# closure bases of two to four values with q <= 12
BASES = (["1/2", "2/3"], ["1/2", "5/6"], ["2/3", "3/4", "5/6"], ["1/2", "3/5", "7/12", "11/12"])


def sets_census() -> list:
    """The 534 argv of the sets census, in a fixed order."""
    finite = [{"kind": "finite", "values": values} for values in FINITE]
    standard = {"kind": "standard"}
    # 1 is spelled in the base, which every version of the closure reads
    bases = [base + one for base in BASES for one in ([], ["1"])]
    closures = [{"kind": "closure", "base": {"kind": "finite", "values": base}, "denom_bound": own}
                for own in (12, 30) for base in bases]
    closures += [{"kind": "closure", "base": {"kind": "finite", "values": base}, "denom_bound": 200}
                 for base in (["1/2", "2/3", "6/7"], ["1/2", "2/3", "3/4"])]
    closures += [{"kind": "closure", "base": standard, "denom_bound": own}
                 for own in (12, 2000, 4000)]
    closures += [
        {"kind": "closure", "base": {"kind": "union", "members": [finite[3], standard]},
         "denom_bound": 30},
        {"kind": "closure", "base": closures[-3], "denom_bound": 30},
    ]
    unions = [
        {"kind": "union", "members": [finite[0], standard]},
        {"kind": "union", "members": [standard, finite[3], closures[1]]},
        {"kind": "union", "members": [closures[2], finite[4]]},
    ]
    descs = [json.dumps(desc) for desc in [*finite, standard, *closures, *unions]]
    argvs = []
    for bound in ("1", "2", "6", "30"):
        argvs += [["chain", "--set", desc, "--length", length, "--denom-bound", bound, "--verify"]
                  for desc in descs for length in ("1", "2", "4")]
        argvs += [["closure", "--base", json.dumps(base), "--denom-bound", bound, "--verify"]
                  for base in [*FINITE, *bases]]
    argvs += [["dcc", "--set", desc, "--threshold", length, "--verify"]
              for desc in descs for length in ("1", "2", "4")]
    # closures whose walks pass the size cap, of which chain reads the top alone
    primes = [p for p in range(29999, 2, -2) if all(p % d for d in range(3, isqrt(p) + 1, 2))]
    for values, bound, length in [(["1/2", "19999/20000"], "20000", "3"),
                                  ([f"{p - 1}/{p}" for p in primes[:389]], "30000", "5")]:
        desc = {"kind": "closure", "base": {"kind": "finite", "values": values},
                "denom_bound": int(bound)}
        argvs.append(["chain", "--set", json.dumps(desc), "--length", length,
                      "--denom-bound", bound, "--verify"])
    return argvs


CENSUSES = {
    "surface": surface_census,
    "threefold": threefold_census,
    "wide": wide_census,
    "weights": weights_census,
    "sets": sets_census,
}


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one command line; a traceback is 1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        code = 1
        err.write(repr(exc))
    return code, out.getvalue(), err.getvalue()


def output_record(argv, code, out, err) -> bytes:
    """The line a digest hashes for one input: argv, exit code, stdout, stderr."""
    return json.dumps([argv, code, out, err]).encode() + b"\n"


def _inputs(target: str):
    """(argv list, files the argv read) for one target."""
    if target in CENSUSES:
        return CENSUSES[target](), {}
    workload, *numbers = target.split(":")
    if workload not in WORKLOADS or not 1 <= len(numbers) <= 2 or not all(
        map(str.isdigit, numbers)
    ):
        raise SystemExit(
            f"unknown target {target!r}: "
            "WORKLOAD:SEED[:ROUNDS], surface, threefold, wide, weights or sets"
        )
    ops = generate(workload, *map(int, numbers))
    return [op["argv"] for ops_round in ops["rounds"] for op in ops_round], ops["files"]


def digest_outputs(targets) -> tuple:
    """(sha256 hex digest over every input of targets, {exit code: argv
    list}, {target: the sha256 hex digest over its inputs alone})."""
    digest = hashlib.sha256()
    per_target = {}
    codes = {}
    for target in targets:
        argvs, files = _inputs(target)
        own = hashlib.sha256()
        with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
            for name, text in files.items():
                Path(name).write_text(text)
            for argv in argvs:
                code, out, err = run(argv)
                record = output_record(argv, code, out, err)
                digest.update(record)
                own.update(record)
                codes.setdefault(code, []).append(argv)
        per_target[target] = own.hexdigest()
    return digest.hexdigest(), codes, per_target


def main_outputs(targets) -> int:
    start = time.perf_counter()
    digest, codes, per_target = digest_outputs(targets)
    print(f"sha256 {digest}")
    for target, own in per_target.items():
        print(f"sha256 {own} {target}")
    for code in sorted(codes):
        print(f"exit {code}: {len(codes[code])}")
        if code:
            for argv in codes[code][:SHOWN]:
                print("  " + " ".join(argv))
    print(f"wall {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    sys.exit(main_outputs(sys.argv[1:]))
