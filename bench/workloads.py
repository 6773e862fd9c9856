"""Seeded inputs and output checks for the benchmark workloads.

Every op is one ``bdivkit`` command line.  ``generate`` turns a workload
name and a seed into rounds of ops plus the files they read; nothing else
feeds the inputs, and no op repeats an input within a run.  Each round holds
a fixed number of ops from every size stratum of its workload, so a run
that stops after a whole round measures the same mix of sizes whatever the
seed.

``check`` decides whether one op's exit code and stdout are right.  The
checks hold for any correct program, not only for today's output: they test
the mathematical promises of each command (termination at weight -1,
strictly decreasing chains, exit codes of bad inputs), never exact values.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("reduce_cut", "batch_small")

# Rounds generated per run.  A batch_small round is one cheap op, so its
# count leaves room for a program several times faster than the one this
# benchmark was written against.  reduce_cut is capped by its input space:
# the 36-60 stratum holds 132 distinct inputs and takes two per round.
# That is about two minutes of busy time here, twice a run; a program fast
# enough to use them all up ends its run early, after whole rounds.
MAX_ROUNDS = {"reduce_cut": 60, "batch_small": 600}

# n = 2 strata by r1 * r2 with the ops each runs per round; a cut extracts
# about 0.3 * r1 * r2 valuations, so the strata run from ~13 to ~135 rays.
# The upper bands are narrow because a cut's cost grows with about the
# square of r1 * r2.  A percentile of a run is steady only inside a band of
# many like-costed ops, never where two bands meet; with the one n = 3 op
# (which costs between the 190-210 and the 320-340 cuts) the counts put the
# median op in the middle of the four 190-210 cuts and p90 inside the two
# largest ones.
REDUCE_STRATA = (
    ((36, 60), 2), ((60, 80), 1), ((110, 130), 1), ((190, 210), 4),
    ((320, 340), 1), ((430, 460), 2),
)
REDUCE_R = range(6, 26)
# Cuts of one stratum cost alike only for near-square pairs and a witness
# whose pullback sits near one half; below REDUCE_PINNED a cut costs under
# 0.1 s whatever the witness, and the pullback is left free.
REDUCE_SKEW = 1.5
REDUCE_PULLBACK = (Fraction(2, 5), Fraction(3, 5))
REDUCE_PINNED = 300

DCC_VERDICTS = {"DCC", "NOT_DCC", "UNKNOWN"}


def _std(r: int) -> Fraction:
    return Fraction(r - 1, r)


def _pullback(coeffs, v) -> Fraction:
    """Pullback coefficient of v on the undivided orthant of a pair."""
    return max(Fraction(0), 1 - sum((e * (1 - c) for e, c in zip(v, coeffs)), Fraction(0)))


def _primitive(v) -> bool:
    g = 0
    for e in v:
        g = gcd(g, e)
    return g == 1


def _is_unit(v) -> bool:
    return sorted(v)[-1] == 1 and sum(v) == 1


def _witness(rng: random.Random, coeffs, ranges, band=(Fraction(0), Fraction(1))):
    """A primitive non-unit v whose pullback lies in band, valued at half of it.

    The pullback and the value each move the cost of a cut by up to a factor
    of two, so the reduce_cut workload pins both to keep its size strata
    apart; the other workloads leave the band wide.
    """
    lo, hi = band
    while True:
        v = tuple(rng.choice(r) for r in ranges)
        if not any(v) or _is_unit(v) or not _primitive(v):
            continue
        pb = _pullback(coeffs, v)
        if pb > 0 and lo <= pb <= hi:
            return v, pb / 2


class _Fresh:
    """Draws inputs from a factory, retrying until the key is new in this run."""

    def __init__(self):
        self.seen = set()

    def take(self, factory):
        for _ in range(10_000):
            key, value = factory()
            if key not in self.seen:
                self.seen.add(key)
                return value
        raise RuntimeError("input space exhausted")


# ---------------------------------------------------------------------------
# reduce_cut


def _reduce_op(coeffs, v, value) -> dict:
    argv = [
        "reduce",
        "--model", json.dumps({"n": len(coeffs), "coeffs": [str(c) for c in coeffs]}),
        "--B", json.dumps({"deviations": [{"v": list(v), "value": str(value)}]}),
    ]
    return {"argv": argv, "expect": 0, "check": {"kind": "reduce"}}


def _reduce_rounds(rng: random.Random, rounds: int) -> list:
    fresh = _Fresh()
    pools = [
        ([(a, b) for a in REDUCE_R for b in REDUCE_R
          if lo <= a * b < hi and max(a, b) <= REDUCE_SKEW * min(a, b)], count)
        for (lo, hi), count in REDUCE_STRATA
    ]

    def n2(pairs):
        def factory():
            r1, r2 = rng.choice(pairs)
            coeffs = (_std(r1), _std(r2))
            band = REDUCE_PULLBACK if r1 * r2 >= REDUCE_PINNED else (Fraction(0), Fraction(1))
            v, value = _witness(rng, coeffs, (range(1, r1), range(1, r2)), band)
            return (coeffs, v, value), _reduce_op(coeffs, v, value)

        return fresh.take(factory)

    def n3():
        def factory():
            coeffs = [_std(rng.randint(4, 6)), _std(rng.randint(4, 6))]
            one = rng.randrange(3)
            coeffs.insert(one, Fraction(1))
            ranges = [range(0, 4)] * 3
            ranges[one] = range(1, 3)
            v, value = _witness(rng, coeffs, ranges)
            return (tuple(coeffs), v, value), _reduce_op(coeffs, v, value)

        return fresh.take(factory)

    out = []
    for _ in range(rounds):
        out.append([n2(pairs) for pairs, count in pools for _ in range(count)] + [n3()])
    return out


# ---------------------------------------------------------------------------
# batch_small

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _pair(rng: random.Random, n: int, rs=range(2, 8)) -> dict:
    return {"n": n, "coeffs": [str(_std(rng.choice(rs))) for _ in range(n)]}


def _valuation(rng: random.Random, n: int) -> list:
    while True:
        v = [rng.randint(0, 5) for _ in range(n)]
        if any(v) and _primitive(v):
            return v


def _batch_entries(rng: random.Random) -> list:
    """Forty-three cheap entries: bounds formulas, local pairs, small sets, bad inputs.

    Each item is (command, args, expected exit code, check), where the check
    is "verified" (the entry asked for --verify and the oracle must confirm),
    "chain" (a chain, if found, is strictly decreasing and verified),
    "dcc" (a verdict, and any witness chain as for "chain"), "reduce", or
    None.
    """
    e = []

    def add(command, args, code=0, check="verified"):
        if check in ("verified", "chain", "dcc"):
            args = dict(args, verify=True)
        e.append((command, args, code, check))

    for _ in range(2):
        add("charp", {"q_max": rng.randint(8, 16)})
        add("unitary", {"n": rng.randint(1, 3), "q": rng.choice(PRIME_POWERS)})
        add("unitary", {"n": rng.randint(1, 4)})
        add("polyvol", {"polytope": {
            "n": 2, "normals": [[1, 0], [0, 1], [-1, -1], [-1, 0]],
            "offsets": ["0", "0", str(rng.randint(1, 6)),
                        str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))],
        }})
        n = rng.randint(1, 2)
        while True:
            coeffs = [_std(rng.randint(2, 12)) for _ in range(n + 2)]
            if sum(coeffs) > n + 1:
                break
        add("pnvol", {"n": n, "coeffs": [str(c) for c in coeffs]})
        n = rng.randint(1, 6)
        add("fermat", {"n": n, "m": n + rng.randint(3, 8)})
        add("hurwitz", {"g": rng.randint(2, 500)})
        add("product", {"n": rng.randint(1, 4), "g": rng.randint(2, 40)})
        add("sylvester", {"k": rng.randint(3, 7)})
        add("minvol", {"n": rng.randint(1, 3)})
        add("ldisc", {"pair": _pair(rng, 3), "v": _valuation(rng, 3)})
        add("lcoeff", {"pair": _pair(rng, 2), "v": _valuation(rng, 2)})
        add("mld", {"pair": _pair(rng, 2)})
        add("round-check", {"coeffs": [str(Fraction(rng.randint(0, 9), 10))
                                       for _ in range(3)], "m": rng.randint(1, 60)})
        add("fset", {"model": _pair(rng, 2)})
        model = _pair(rng, 2, range(3, 9))
        coeffs = [Fraction(c) for c in model["coeffs"]]
        v, value = _witness(rng, coeffs, (range(1, 3), range(1, 3)))
        add("weight", {"model": model, "B": {"deviations": [{"v": list(v), "value": str(value)}]}})
        add("closure", {"base": [str(_std(r)) for r in rng.sample(range(2, 9), 2)],
                        "denom_bound": rng.randint(6, 24)})
    base = sorted(rng.sample(range(2, 12), 5))
    add("chain", {"set": {"kind": "closure", "denom_bound": 120, "base": {
        "kind": "finite", "values": [str(_std(r)) for r in base]}},
        "length": 4, "denom_bound": 120}, check="chain")
    base = sorted(rng.sample(range(2, 16), 6))
    add("dcc", {"set": {"kind": "closure", "denom_bound": 160, "base": {
        "kind": "finite", "values": [str(_std(r)) for r in base]}}}, check="dcc")
    add("constants", {"n": 2, "eps": "1", "gamma0": str(rng.randint(1, 50)), "delta": "1/42"})
    add("constants", {"n": 3, "eps": "1", "gamma0": str(rng.randint(1, 50)), "delta": "1/42"})
    r1, r2 = rng.randint(3, 8), rng.randint(3, 8)
    coeffs = (_std(r1), _std(r2))
    v, value = _witness(rng, coeffs, (range(1, r1), range(1, r2)))
    reduce_args = {
        "model": {"n": 2, "coeffs": [str(c) for c in coeffs]},
        "B": {"deviations": [{"v": list(v), "value": str(value)}]},
    }
    add("reduce", reduce_args, check="reduce")
    n = rng.randint(1, 5)
    add("fermat", {"n": n, "m": n + rng.randint(0, 2)}, code=2, check=None)
    add("hurwitz", {"g": rng.randint(-3, 1)}, code=2, check=None)
    add("minvol", {}, code=2, check=None)
    add("no-such-command", {"n": rng.randint(1, 9)}, code=2, check=None)
    return e


def _batch_rounds(rng: random.Random, rounds: int) -> tuple:
    """One batch file per round, all entries in a fixed order of kinds.

    The order stays fixed because where the ~0.25 s constants oracle lands
    among the others changes how the two pool threads share the interpreter
    lock, and with it the op's time by up to a third.
    """
    files = {}
    out = []
    for i in range(rounds):
        name = f"batch-{i:03d}.json"
        entries = _batch_entries(rng)
        ids = [f"e{k:02d}" for k in range(len(entries))]
        files[name] = json.dumps({"entries": [
            {"id": key, "command": c, "args": a} for key, (c, a, _, _) in zip(ids, entries)
        ]}, sort_keys=True)
        out.append([{
            "argv": ["batch", "--parallel", "2", "--file", name],
            "expect": max(code for _, _, code, _ in entries),
            "check": {"kind": "batch", "entries": {
                key: [code, check] for key, (_, _, code, check) in zip(ids, entries)
            }},
        }])
    return out, files


def generate(workload: str, seed: int, rounds: int | None = None) -> dict:
    """Rounds of ops and the files they read, from the workload and seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds or MAX_ROUNDS[workload]
    files = {}
    if workload == "reduce_cut":
        ops = _reduce_rounds(rng, rounds)
    else:
        ops, files = _batch_rounds(rng, rounds)
    return {"rounds": ops, "files": files}


# ---------------------------------------------------------------------------
# checks


def _check_reduce(out: dict) -> str | None:
    steps = out.get("steps")
    if not steps:
        return "no cut ran although the input holds a witness"
    if out.get("terminated_weight") != -1:
        return f"terminated at weight {out.get('terminated_weight')}"
    weights = [s["weight_before"] for s in steps] + [-1]
    if any(a <= b for a, b in zip(weights, weights[1:])):
        return f"weights do not strictly decrease: {weights}"
    if out.get("verify_ok") is not True:
        return "box check not reported"
    return None


def _check_chain(chain: dict, verified) -> str | None:
    elems = [Fraction(x) for x in chain["elements"]]
    if any(a <= b for a, b in zip(elems, elems[1:])):
        return "chain is not strictly decreasing"
    if any(not 0 <= x <= 1 for x in elems):
        return "chain leaves [0, 1]"
    if verified is not True:
        return "chain not verified"
    return None


def _check_dcc(out: dict) -> str | None:
    if out.get("verdict") not in DCC_VERDICTS:
        return f"verdict {out.get('verdict')!r}"
    witness = out.get("witness")
    if witness is not None:
        return _check_chain(witness, out.get("verified"))
    return None


def _check_batch(out: dict, expect: dict) -> str | None:
    results = out.get("results", {})
    if sorted(results) != sorted(expect):
        return "batch results do not match the entry ids"
    for key in sorted(expect):
        code, check = expect[key]
        res = results[key]
        if res.get("exit_code") != code:
            return f"entry {key}: exit {res.get('exit_code')}, expected {code}"
        if check == "verified" and res["output"].get("verified") is not True:
            return f"entry {key}: oracle did not confirm"
        why = None
        if check == "reduce":
            why = _check_reduce(res["output"])
        elif check == "chain" and res["output"].get("found"):
            why = _check_chain(res["output"]["chain"], res["output"].get("verified"))
        elif check == "dcc":
            why = _check_dcc(res["output"])
        if why:
            return f"entry {key}: {why}"
    first = next((k for k in sorted(expect) if expect[k][0] != 0), None)
    if out.get("first_error") != first:
        return f"first_error {out.get('first_error')!r}, expected {first!r}"
    return None


def check(op: dict, code: int, stdout: str) -> str | None:
    """None when the op's exit code and output are right, else the reason."""
    if code != op["expect"]:
        return f"exit code {code}, expected {op['expect']}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    spec = op["check"]
    kind = spec["kind"]
    if kind == "reduce":
        return _check_reduce(out)
    return _check_batch(out, spec["entries"])
