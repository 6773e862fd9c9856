"""Command-line front end: one subcommand per public operation.

Output is deterministic JSON (sorted keys, rationals as "p/q" strings) on
stdout, byte for byte ``json.dumps(result, sort_keys=True, indent=2)`` plus a
newline, which ``_dump`` writes into one buffer, one format call or join per
list of like rows; scan commands emit CSV.  Errors are machine-readable JSON on
stderr with exit code 2 for precondition violations (a params key the
command does not read is one) and 3 for internal invariant breaches.
``--verify`` re-runs an oracle next to the fast path and fails loudly (exit
3) on any mismatch; for hurwitz, product, minvol, sylvester, polyvol and
weight the oracle shares code or values with the fast path, and ``lcoeff``
with n != 2 has none, so it prints "oracle-skipped".
``reduce`` has no oracle of its own: ``run_reduction`` checks every output
with ``verify_reduction``, so ``reduce`` prints ``verify_ok``, and with
``--verify`` "oracle-skipped".  ``dcc`` reads its verdict from the set
description alone, and its oracle derives each witness 1/m again from the
standard coefficient (m-1)/m by exceptional sums; ``chain``'s oracle checks
each member by rule, or in the listed members of a closure that does not
hold the standard set.  ``batch`` reads its entries from ``--file`` alone
and refuses ``--json`` and ``--verify``.

The command line is ``bdivkit COMMAND [OPTION ...]``, read by ``Parser``
straight from the table ``_COMMANDS``; an error in argv itself exits 2 with
the same JSON record.
"""

from __future__ import annotations

import io
import json
import re
import sys
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, product as iter_product, repeat
from json.encoder import encode_basestring_ascii as _escape
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter, mul

from .bounds import (
    Polytope,
    char_p_ratio_report,
    effective_constants,
    fermat_report,
    fermat_threshold_scan,
    hurwitz_report,
    curve_power_report,
    min_volume_candidate,
    poly_eval,
    poly_times,
    polytope_volume,
    projective_space_log_volume,
    sylvester,
    sylvester_coeffs,
    unitary_order_poly,
    unitary_order_value,
)
from .dcc import (
    DEFAULT_CHAIN_LENGTH,
    DEFAULT_DENOM_BOUND,
    FiniteSet,
    desc_from_json,
    dcc_verdict,
    exceptional_closure,
    find_decreasing_chain,
    members_among,
)
from .exact import (
    InvariantViolation,
    PreconditionError,
    format_rat,
    parse_int,
    parse_rat,
    parse_rat_list,
)
from .fans import Fan
from .logpairs import (
    BDivisor,
    LocalPair,
    blowup_chain_coeff,
    log_discrepancy,
    mld_origin_minimizer,
    pullback_coeff,
    pullback_trace,
    rounding_comparison,
    valuation,
)
from .reduction import (
    ReductionState,
    positive_pullback_prefixes,
    run_reduction,
    verify_reduction,
    witnesses,
)


def _mismatch(what: str, fast, oracle):
    raise InvariantViolation(
        f"verification mismatch in {what}: fast path {fast} vs oracle {oracle}"
    )


def _ensure_match(what: str, fast, oracle) -> None:
    if fast != oracle:
        _mismatch(what, fast, oracle)


def _arg(p, key, default):
    """p[key], or the default when the key is absent or null."""
    value = p.get(key)
    return default if value is None else value


# ---------------------------------------------------------------------------
# command handlers (pure: params dict in, JSON-able dict out)


def _cmd_ldisc(p):
    pair = LocalPair.from_json(p["pair"])
    v = valuation(p["v"])
    ld = log_discrepancy(pair, v)
    out = {"log_discrepancy": format_rat(ld)}
    if p.get("verify"):
        oracle = Fraction(sum(v)) - sum(
            (e * c for e, c in zip(v, pair.coeffs)), Fraction(0)
        )
        _ensure_match("ldisc", ld, oracle)
        out["verified"] = True
    return out


def _cmd_lcoeff(p):
    pair = LocalPair.from_json(p["pair"])
    v = valuation(p["v"])
    value = pullback_coeff(pair, v)
    out = {"coeff": format_rat(value)}
    if p.get("verify"):
        if pair.n == 2:
            _ensure_match("lcoeff", value, blowup_chain_coeff(*pair.coeffs, v))
            out["verified"] = True
        else:
            # the only formula at hand is pullback_coeff's own body
            out["verified"] = "oracle-skipped"
    return out


def _cmd_ltrace(p):
    pair = LocalPair.from_json(p["pair"])
    fan = Fan.from_json(p["fan"])
    md = pullback_trace(pair, fan)
    out = {
        "fan": fan.to_json(),
        "ray_coeffs": [format_rat(c) for c in md.ray_coeffs],
    }
    if p.get("verify"):
        if pair.n == 2:
            for ray, c in zip(fan.rays, md.ray_coeffs):
                oracle = blowup_chain_coeff(pair.coeffs[0], pair.coeffs[1], ray)
                _ensure_match(f"ltrace at {ray}", c, oracle)
            out["verified"] = True
        else:
            out["verified"] = "oracle-skipped"
    return out


# points in the box an oracle of `mld --verify` or `fset --verify` scans, the
# product of its sides: on a 2-vCPU machine `mld --verify` on
# (0, 247/248, 247/248), a box of exactly 10^6 points, takes 0.7 s as a fresh
# process; each side grows as 1 / (1 - c_i), so (0, 999/1000, 999/1000) would
# scan 1.6 * 10^7 points, and `fset --verify` on six coefficients 8/9 scans
# 21^6 = 8.6 * 10^7 (37 s)
ORACLE_BOX_CAP = 1_000_000


def _box(start: int, sides: list):
    """The integer points v in lex order, v_i running over sides[i] values from
    start, or None when the box holds more than ORACLE_BOX_CAP points."""
    if prod(sides) > ORACLE_BOX_CAP:
        return None
    return iter_product(*(range(start, start + side) for side in sides))


def _mld_bruteforce(pair: LocalPair):
    """Plain exhaustive (minimum, lex-least minimizer) over an enlarged box,
    on integer weights over their lcm; an independent oracle.

    None when the box holds more than ORACLE_BOX_CAP points.
    """
    den = lcm(*(c.denominator for c in pair.coeffs))
    w = [den - c.numerator * (den // c.denominator) for c in pair.coeffs]
    a0 = sum(w)
    # a minimizer has v_i w_i <= a0, the value at (1,..,1); w_i = 0 pins v_i.
    # The box is twice that wide.
    points = _box(1, [max(1, 2 * -(-a0 // x)) if x else 1 for x in w])
    if points is None:
        return None
    best = best_v = None
    # the box runs in lex order, so the first minimum found is the lex-least
    for v in points:
        val = sum(map(mul, v, w))
        if best is None or val < best:
            best, best_v = val, v
    return Fraction(best, den), best_v


def _cmd_mld(p):
    pair = LocalPair.from_json(p["pair"])
    value, minimizer = mld_origin_minimizer(pair)
    out = {
        "mld": format_rat(value),
        "minimizer": list(minimizer),
        "klt": pair.is_klt,
    }
    if p.get("verify"):
        oracle = _mld_bruteforce(pair)
        if oracle is None:
            out["verified"] = "oracle-skipped"
        else:
            _ensure_match("mld", (value, minimizer), oracle)
            out["verified"] = True
    return out


def _cmd_round_check(p):
    m = parse_int(p["m"], "m")
    report = rounding_comparison(p["coeffs"], m)
    out = report.to_json()
    if p.get("verify"):
        coeffs = [parse_rat(c) for c in p["coeffs"]]
        lhs = tuple(m * c.numerator // c.denominator for c in coeffs)
        rhs = tuple(-(-((m - 1) * c.numerator) // c.denominator) for c in coeffs)
        _ensure_match("round-check", (report.floor_up, report.ceil_down), (lhs, rhs))
        out["verified"] = True
    return out


def _model_and_bdiv(p):
    pair = LocalPair.from_json(p["model"])
    bdiv = BDivisor.from_json(_arg(p, "B", {"deviations": []}), default_pair=pair)
    return pair, bdiv


def _cmd_fset(p):
    pair = LocalPair.from_json(p["model"])
    prefixes = positive_pullback_prefixes(pair)
    cs = [c for c in pair.coeffs if c < 1]
    out = {
        "s": len(cs),
        "w": pair.n - len(cs),
        "prefixes": [list(f) for f in prefixes],
    }
    if p.get("verify"):
        bound = max((int(2 / (1 - c)) + 2 for c in cs), default=0)
        points = _box(0, [bound + 1] * len(cs))
        if points is None:
            out["verified"] = "oracle-skipped"
            return out
        # sum e_i (1 - c_i) < 1, scaled to integers by the lcm of the 1 - c_i
        scale = lcm(*((1 - c).denominator for c in cs))
        weights = [int((1 - c) * scale) for c in cs]
        naive = [v for v in points if sum(map(mul, v, weights)) < scale]
        _ensure_match("fset", sorted(prefixes), sorted(naive))
        out["verified"] = True
    return out


def _cmd_weight(p):
    pair, bdiv = _model_and_bdiv(p)
    out = {}
    stratum = p.get("stratum")
    if stratum is not None and not isinstance(stratum, list):
        raise PreconditionError(
            f"stratum must be a list of 1-based component indices, got {stratum!r}"
        )
    if stratum is not None:
        raw = [parse_int(i, "stratum") for i in stratum]
        for i in raw:
            if not 1 <= i <= pair.n:
                raise PreconditionError(f"stratum index {i} is outside 1..{pair.n}")
        if len(set(raw)) < len(raw):
            raise PreconditionError(f"stratum {raw} lists an index twice")
        if not raw:
            raise PreconditionError("stratum must be a nonempty index set")
        mapped = tuple(sorted(i - 1 for i in raw))
        out["stratum"] = sorted(raw)
    found = witnesses(pair, bdiv)
    if stratum is not None:
        found = [wit for wit in found if wit.stratum == mapped]
    # of the greatest weight, the first stratum in subset order; witnesses
    # come in lexicographic order, so the least vector there
    witness = min(found, default=None,
                  key=lambda wit: (-wit.weight, sum(1 << i for i in wit.stratum)))
    out["weight"] = -1
    if witness is not None:
        out["weight"] = witness.weight
        out["witness"] = witness.to_json()
        if p.get("verify"):
            _ensure_match("weight witness", True, witness.b_value < witness.pullback)
            out["verified"] = True
    return out


def _cmd_reduce(p):
    pair, bdiv = _model_and_bdiv(p)
    trace = run_reduction(pair, bdiv)
    out = trace.to_json()
    out["model"] = pair.to_json()
    out["verify_ok"] = True
    if p.get("verify"):
        out["verified"] = "oracle-skipped"
    return out


def _cmd_verify(p):
    return verify_reduction(ReductionState.from_json(p["state"])).to_json()


def _cmd_closure(p):
    bound = parse_int(p["denom_bound"], "denom_bound")
    base = FiniteSet(p["base"]).values
    values = exceptional_closure(base, bound)
    out = {"values": [format_rat(v) for v in values]}
    if p.get("verify"):
        # every pair, on numerators over L: a + b - 1 is (x + y - L) / L
        big_l = lcm(*(v.denominator for v in values))
        nums = {v.numerator * (big_l // v.denominator) for v in values}
        for x in nums:
            for y in nums:
                e = x + y - big_l
                if e >= 0 and big_l // gcd(e, big_l) <= bound and e not in nums:
                    _mismatch("closure closedness", values, Fraction(e, big_l))
        vals = set(values)
        for v in base:
            if v.denominator <= bound and v not in vals:
                _mismatch("closure base membership", values, v)
        out["verified"] = True
    return out


def _positive_arg(p, key, default):
    value = parse_int(_arg(p, key, default), key)
    if value < 1:
        raise PreconditionError(f"{key} must be >= 1, got {value}")
    return value


def _cmd_chain(p):
    desc = desc_from_json(p["set"])
    length = parse_int(p["length"], "length")
    bound = _positive_arg(p, "denom_bound", DEFAULT_DENOM_BOUND)
    chain = find_decreasing_chain(desc, length, bound)
    out = {"found": chain is not None}
    if chain is not None:
        out["chain"] = chain.to_json()
        if p.get("verify"):
            found = members_among(desc, chain.elements, bound)
            for e in chain.elements:
                if not (e > 0 and e in found):
                    _mismatch("chain membership",
                              "[" + ", ".join(map(format_rat, chain.elements)) + "]",
                              format_rat(e))
            out["verified"] = True
    return out


def _cmd_dcc(p):
    desc = desc_from_json(p["set"])
    length = _positive_arg(p, "threshold", DEFAULT_CHAIN_LENGTH)
    verdict = dcc_verdict(desc, length)
    out = verdict.to_json()
    if p.get("verify") and verdict.witness is not None:
        # each element 1/m again as the exceptional sum of m - 1 copies of the
        # standard coefficient (m-1)/m, which is (m-1)^2/m - (m-2); its partial
        # sums (m-1-j)/m stay non-negative, so every sum is kept
        for e in verdict.witness.elements:
            m = e.denominator
            _ensure_match("dcc witness", e, (m - 1) * Fraction(m - 1, m) - (m - 2))
        out["verified"] = True
    return out


def _cmd_sylvester(p):
    k = parse_int(p["k"], "k")
    terms = sylvester(k)
    out = {"terms": [format_rat(t) for t in terms]}
    if p.get("verify"):
        prod = 1
        for i in range(1, len(terms)):
            prod *= terms[i - 1] + 1
            _ensure_match("sylvester product identity", terms[i], prod)
        # doubly-exponential growth, reported not asserted: floor(log2 log2 r_k)/k
        # creeps toward 1 (computed through bit lengths, no floats)
        growth = []
        for i, r in enumerate(terms):
            if i == 0 or r < 4:
                continue
            b = r.bit_length() - 1
            growth.append(f"{b.bit_length() - 1}/{i}")
        out["log2_log2_over_k"] = growth
        out["verified"] = True
    return out


def _cmd_minvol(p):
    n = parse_int(p["n"], "n")
    vol = min_volume_candidate(n)
    out = {"n": n, "volume": format_rat(vol)}
    if p.get("verify"):
        oracle = projective_space_log_volume(n, sylvester_coeffs(n))
        _ensure_match("minvol", vol, oracle)
        out["verified"] = True
    return out


def _cmd_pnvol(p):
    n = parse_int(p["n"], "n")
    if p.get("sylvester"):
        coeffs = sylvester_coeffs(n)
    else:
        coeffs = parse_rat_list(p["coeffs"])
    vol = projective_space_log_volume(n, coeffs)
    out = {
        "n": n,
        "coeffs": [format_rat(c) for c in coeffs],
        "volume": format_rat(vol),
    }
    if p.get("verify"):
        excess = sum(coeffs, Fraction(0)) - (n + 1)
        if excess > 0 and n <= 4:
            oracle = factorial(n) * polytope_volume(Polytope.simplex(n, excess))
            _ensure_match("pnvol", vol, oracle)
            out["verified"] = True
        else:
            out["verified"] = "oracle-skipped"
    return out


def _polygon_area(den: int, points) -> Fraction:
    """Exact area of the 2D convex hull of integer points over den > 0, by an
    angular sort and the shoelace sum."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return Fraction(0)
    base = pts[0]

    def cmp(a, b):
        cross = (a[0] - base[0]) * (b[1] - base[1]) - (a[1] - base[1]) * (
            b[0] - base[0]
        )
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        da = (a[0] - base[0]) ** 2 + (a[1] - base[1]) ** 2
        db = (b[0] - base[0]) ** 2 + (b[1] - base[1]) ** 2
        return -1 if da < db else (1 if da > db else 0)

    ordered = [base] + sorted(pts[1:], key=cmp_to_key(cmp))
    total = 0
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        total += x1 * y2 - x2 * y1
    return Fraction(abs(total), 2 * den * den)


def _cmd_polyvol(p):
    poly = Polytope.from_json(p["polytope"])
    vol = polytope_volume(poly)
    out = {"n": poly.n, "volume": format_rat(vol)}
    if p.get("verify"):
        shifted = Polytope(
            n=poly.n,
            normals=poly.normals,
            offsets=tuple(
                b + sum(a for a in row) for row, b in zip(poly.normals, poly.offsets)
            ),
        )
        _ensure_match("polyvol translation invariance", vol, polytope_volume(shifted))
        if poly.n == 2:
            den, verts = poly.vertices
            _ensure_match("polyvol shoelace", vol, _polygon_area(den, [pt for pt, _ in verts]))
        out["verified"] = True
    return out


def _cmd_hurwitz(p):
    g = parse_int(p["g"], "g")
    report = hurwitz_report(g)
    out = report.to_json()
    if p.get("verify"):
        _ensure_match("hurwitz", report.values["bound"], 42 * report.values["vol"])
        out["verified"] = True
    return out


def _cmd_product(p):
    n = parse_int(p["n"], "n")
    g = parse_int(p["g"], "g")
    report = curve_power_report(n, g)
    out = report.to_json()
    if p.get("verify"):
        other = curve_power_report(n, g + 1)
        _ensure_match(
            "product ratio independent of g",
            report.values["ratio"],
            other.values["ratio"],
        )
        out["verified"] = True
    return out


def _text_row(row: dict, counts) -> dict:
    """A scan row as printed: its count keys and booleans as they are, every
    other number as text."""
    return {k: v if k in counts or isinstance(v, bool) else format_rat(v) for k, v in row.items()}


def _scan_csv(rows, columns) -> str:
    """A scan as CSV from its formatted rows: the columns, the last one a
    boolean written as pass or fail."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    *values, verdict = columns
    for r in rows:
        buf.write("".join(f"{r[c]}," for c in values) + ("pass\n" if r[verdict] else "fail\n"))
    return buf.getvalue()


def _cmd_fermat(p):
    if p.get("scan"):
        n_max = parse_int(_arg(p, "n_max", 10), "n_max")
        rows = fermat_threshold_scan(n_max)
        out_rows = [_text_row(r, ("n", "m")) for r in rows]
        first = next((r["n"] for r in rows if r["exceeds"]), None)
        return {
            "rows": out_rows,
            "first_exceeding_n": first,
            "csv": _scan_csv(
                out_rows, ("n", "m", "aut_lower", "vol", "ratio", "threshold", "exceeds")
            ),
        }
    n = parse_int(p["n"], "n")
    m = parse_int(p["m"], "m")
    report = fermat_report(n, m)
    out = report.to_json()
    if p.get("verify"):
        poly = (0, 1)  # x (x - (n+2))^n
        for _ in range(n):
            poly = poly_times(poly, 1, n + 2)
        _ensure_match("fermat volume", report.values["vol"], poly_eval(poly, m))
        out["verified"] = True
    return out


def _cmd_unitary(p):
    n = parse_int(p["n"], "n")
    poly, modulus = unitary_order_poly(n)
    out = {
        "n": n,
        "poly": [format_rat(c) for c in poly],
        "degree": len(poly) - 1,
        "gcd_rule": f"divide by gcd({modulus}, q+1)",
    }
    if p.get("q") is not None:
        q = parse_int(p["q"], "q")
        order = unitary_order_value(n, q)
        out["q"] = q
        out["order"] = format_rat(order)
        if p.get("verify"):
            direct = q ** comb(n + 2, 2)
            for i in range(2, n + 3):
                direct *= q**i - (-1) ** i
            direct //= gcd(modulus, q + 1)
            _ensure_match("unitary order", order, direct)
            out["verified"] = True
    elif p.get("verify"):
        _ensure_match(
            "unitary degree",
            len(poly) - 1,
            comb(n + 2, 2) + comb(n + 3, 2) - 1,
        )
        out["verified"] = True
    return out


def _cmd_charp(p):
    q_max = parse_int(p["q_max"], "q_max")
    report, rows = char_p_ratio_report(q_max)
    out = report.to_json()
    out["rows"] = [_text_row(r, ("q",)) for r in rows]
    out["csv"] = _scan_csv(out["rows"], ("q", "g", "vol", "order", "bound", "ok"))
    if p.get("verify"):
        for r in rows:
            q = r["q"]
            direct = q**3 * (q**2 - 1) * (q**3 + 1) // gcd(3, q + 1)
            _ensure_match(f"charp order at q={q}", r["order"], direct)
        out["verified"] = True
    return out


def _cmd_constants(p):
    n = parse_int(p["n"], "n")
    report = effective_constants(n, p["eps"], p["gamma0"], p["delta"])
    out = report.to_json()
    if p.get("verify"):
        e = parse_rat(p["eps"])
        g0 = parse_rat(p["gamma0"])
        d = parse_rat(p["delta"])
        gamma = Fraction(4 * n) / e
        c = Fraction(2)
        for _ in range(n - 1):
            c *= 1 + gamma
        _ensure_match("constants C", report.values["C"], c)
        y = c * n / d + 1
        m_min = y.numerator // y.denominator + 1  # floor(y) + 1, the least integer > y
        fast = report.values["M_min"]
        if type(fast) is not int or fast != m_min:
            _mismatch("constants M_min (an int)", repr(fast), m_min)
        gr = Fraction(2 * n) / e
        mr = 2 * g0
        for _ in range(n - 1):
            mr *= 1 + gr
        _ensure_match("constants m_rec", report.values["m_rec"], mr)
        out["verified"] = True
    return out


def run_command(name: str, params: dict) -> dict:
    """Execute one command from a params dict; raises on bad input or a stray key."""
    handler = _COMMANDS[name][2] if isinstance(name, str) and name in _COMMANDS else None
    if handler is None:
        raise PreconditionError(f"unknown command {name!r}")
    if not isinstance(params, dict):
        raise PreconditionError(f"the arguments of {name!r} must be a JSON object")
    stray = params.keys() - _PARAMS[name]
    if stray:
        raise PreconditionError(f"{name} takes no argument {', '.join(sorted(map(repr, stray)))}")
    return handler(params)


# ---------------------------------------------------------------------------
# batch execution


def _error_record(exc) -> dict:
    """The JSON error record of a handled error, with its exit code.

    Invariant breaches exit 3.  Bad input exits 2; a KeyError from a params
    dict is a missing argument.
    """
    if isinstance(exc, InvariantViolation):
        return {"error": str(exc), "exit_code": 3}
    if isinstance(exc, KeyError):
        return {"error": f"missing argument {exc}", "exit_code": 2}
    return {"error": str(exc), "exit_code": 2}


_HANDLED_ERRORS = (PreconditionError, InvariantViolation, KeyError)


def run_batch(entries, parallelism: int = 1) -> tuple:
    """Run batch entries in order; results keyed by id.

    Entries run one after another in this process.  ``parallelism`` is
    validated (it must be >= 1) but does not change how entries run or what
    they output: the work is pure Python and holds the interpreter lock, so a
    thread pool gave no speedup.
    """
    if parallelism < 1:
        raise PreconditionError("parallelism must be >= 1")
    if not all(isinstance(e, dict) for e in entries):
        raise PreconditionError("batch entries must be JSON objects")
    ids = [e.get("id") for e in entries]
    # the ids key the output, whose keys the writer must hash and sort
    kinds = {type(i) for i in ids}
    if not (kinds <= {str} or kinds <= {int}) or len(set(ids)) != len(ids):
        raise PreconditionError(
            "batch entry ids must be unique, and all strings or all integers"
        )

    def run_one(entry):
        try:
            output = run_command(entry["command"], _arg(entry, "args", {}))
            return {"status": "ok", "exit_code": 0, "output": output}
        except _HANDLED_ERRORS as exc:
            return {"status": "error", **_error_record(exc)}

    results = [run_one(e) for e in entries]
    keyed = {i: r for i, r in zip(ids, results)}
    first_error = next(
        (i for i, r in zip(ids, results) if r["status"] != "ok"), None
    )
    exit_code = max((r["exit_code"] for r in results), default=0)
    return {"results": keyed, "first_error": first_error}, exit_code


# ---------------------------------------------------------------------------
# argument parsing

_JSON = json.loads
_FLAG = None
_TOO_DEEP = "JSON nested too deeply to decode (past Python's recursion limit)"

_COMMON_OPTIONS = (
    ("--out", str, "write the output to a file instead of stdout"),
    ("--verify", _FLAG, "re-run an independent oracle and fail loudly on mismatch"),
    ("--file", str, "read a JSON object supplying defaults for this command's inputs"),
    ("--json", _JSON, "inline JSON object supplying defaults for this command's inputs"),
)

# command -> (help, its own options, handler); every command also takes
# _COMMON_OPTIONS.  An option is (flag, type, help), the help optional: the
# type converts the option's value, and _FLAG marks an option that takes
# none.  The flag without its leading dashes, "-" read as "_", is the params
# key the handler reads.  ``batch`` has no handler: ``main`` runs it, and
# ``run_command`` refuses it.
_COMMANDS = {
    "ldisc": ("log discrepancy of a monomial valuation",
              (("--pair", _JSON), ("--v", _JSON)), _cmd_ldisc),
    "lcoeff": ("positive-part pullback coefficient of a valuation",
               (("--pair", _JSON), ("--v", _JSON)), _cmd_lcoeff),
    "ltrace": ("pullback trace of a pair on a fan", (("--pair", _JSON), ("--fan", _JSON)),
               _cmd_ltrace),
    "mld": ("minimal log discrepancy at the origin", (("--pair", _JSON),), _cmd_mld),
    "round-check": ("compare floor(m c) with ceil((m-1) c)",
                    (("--coeffs", _JSON), ("--m", int)), _cmd_round_check),
    "fset": ("prefixes with positive pullback coefficient", (("--model", _JSON),), _cmd_fset),
    "weight": ("weight of a model against a b-divisor",
               (("--model", _JSON), ("--B", _JSON),
                ("--stratum", _JSON, "1-based component indices")),
               _cmd_weight),
    "reduce": ("run the weight-descent reduction", (("--model", _JSON), ("--B", _JSON)),
               _cmd_reduce),
    "verify": ("check pullback <= B at every valuation of a state", (("--state", _JSON),),
               _cmd_verify),
    "closure": ("closure of a base under b1+b2-1",
                (("--base", _JSON), ("--denom-bound", int)),
                _cmd_closure),
    "chain": ("find a strictly decreasing chain in a set",
              (("--set", _JSON), ("--length", int), ("--denom-bound", int)), _cmd_chain),
    "dcc": ("descending-chain verdict", (("--set", _JSON), ("--threshold", int)), _cmd_dcc),
    "sylvester": ("terms of r0=1, r_{k+1}=r_k(r_k+1)", (("--k", int),), _cmd_sylvester),
    "minvol": ("minimal-volume candidate 1/r_{n+2}^n", (("--n", int),), _cmd_minvol),
    "pnvol": ("log volume of projective space with n+2 hyperplanes",
              (("--n", int), ("--coeffs", _JSON), ("--sylvester", _FLAG)), _cmd_pnvol),
    "polyvol": ("exact volume of a rational polytope", (("--polytope", _JSON),), _cmd_polyvol),
    "hurwitz": ("84(g-1) bound and canonical volume", (("--g", int),), _cmd_hurwitz),
    "product": ("n-fold product of a maximal-symmetry curve", (("--n", int), ("--g", int)),
                _cmd_product),
    "fermat": ("Fermat hypersurface report or threshold scan",
               (("--n", int), ("--m", int), ("--scan", _FLAG), ("--n-max", int)),
               _cmd_fermat),
    "unitary": ("unitary group order: polynomial part or value",
                (("--n", int), ("--q", int)), _cmd_unitary),
    "charp": ("characteristic-p ratio check up to q_max",
              (("--q-max", int), ("--csv", _FLAG, "emit the scan as CSV")), _cmd_charp),
    "constants": ("explicit constant propagation",
                  (("--n", int), ("--eps", str), ("--gamma0", str), ("--delta", str)),
                  _cmd_constants),
    "batch": ("run a batch file of commands",
              (("--parallel", int, "accepted for existing command lines; "
                                   "entries always run in order (default 1)"),), None),
}

# A token starting with "-" is an option, unless it is "-" itself, a negative
# number as this pattern reads one, or holds a space: those are values.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


# command -> the params keys its handler reads: its own options, and verify
_PARAMS = {name: {"verify", *(_key(o[0]) for o in e[1])} for name, e in _COMMANDS.items()}


def _options(command=None) -> dict:
    """Option string -> (params key, type); before the command only help exists."""
    table = {"-h": ("help", _FLAG), "--help": ("help", _FLAG)}
    if command is not None:
        for flag, kind, *_ in _COMMON_OPTIONS + _COMMANDS[command][1]:
            table[flag] = (_key(flag), kind)
    return table


class Parser:
    """The command line ``bdivkit COMMAND [OPTION ...]``, read against ``_COMMANDS``.

    An option is ``--opt value``, ``--opt=value`` or a flag alone, and may be
    shortened to any prefix that no other option of the command shares.  A
    repeated option keeps its last value.  ``-h``/``--help``, before or after
    the command, prints help on stdout and exits 0.  Any other error in argv
    prints ``{"error": ..., "exit_code": 2}`` on stderr and exits 2.
    """

    def error(self, message: str):
        print(json.dumps({"error": message, "exit_code": 2}, sort_keys=True),
              file=sys.stderr)
        raise SystemExit(2)

    def help(self, command=None):
        if command is None:
            head = ["usage: bdivkit COMMAND [OPTION ...]", "",
                    "Exact toolkit for b-divisor reductions, coefficient-set chains,",
                    "and explicit volume/symmetry bounds.", "", "commands:"]
            rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
            tail = ["", "'bdivkit COMMAND -h' lists the options of a command."]
        else:
            help_text, own, _ = _COMMANDS[command]
            head = [f"usage: bdivkit {command} [OPTION ...]", "", help_text, "", "options:"]
            rows = [("-h, --help", "show this help message and exit")] + [
                (flag if kind is _FLAG else f"{flag} {_key(flag).upper()}", "".join(text))
                for flag, kind, *text in _COMMON_OPTIONS + own
            ]
            tail = []
        width = max(len(left) for left, _ in rows) + 2
        body = [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
        print("\n".join(head + body + tail))
        raise SystemExit(0)

    def _classify(self, token: str, table: dict):
        """(option, attached value or None) for an option, None for a value.

        An option the table does not hold comes back as (None, None).
        """
        if token[:1] != "-" or token == "-":
            return None
        if token in table:
            return token, None
        name, eq, attached = token.partition("=")
        if eq and name in table:
            return name, attached
        if token[1] == "-":
            matches = [flag for flag in table if flag.startswith(name)]
            if len(matches) > 1:
                self.error(f"ambiguous option: {name} could match {', '.join(matches)}")
            if matches:
                return matches[0], (attached if eq else None)
        elif token[:2] in table:  # a one-letter option with a value attached
            return token[:2], token[2:]
        if _NEGATIVE_NUMBER.match(token) or " " in token:
            return None
        return None, None

    def _take(self, tokens, command, strays: list) -> dict:
        """The options in tokens by params key; what no option takes goes to strays.

        Every token is classified before any is taken, so an ambiguous option
        is an error even after a help flag.  Tokens after "--" are strays.
        """
        table = _options(command)
        end = tokens.index("--") if "--" in tokens else len(tokens)
        found = [self._classify(token, table) for token in tokens[:end]]
        options = {}
        i = 0
        while i < end:
            flag, attached = found[i] or (None, None)
            if flag is None:
                strays.append(tokens[i])
            else:
                key, kind = table[flag]
                if kind is _FLAG:
                    if attached is not None:
                        self.error(f"{flag} takes no value, got {attached!r}")
                    if key == "help":
                        self.help(command)
                    options[key] = True
                else:
                    if attached is None:
                        if i + 1 == end or found[i + 1] is not None:
                            self.error(f"{flag} expects one value")
                        i += 1
                        attached = tokens[i]
                    try:
                        options[key] = kind(attached)
                    except ValueError as exc:
                        self.error(f"{flag}: invalid value ({exc})")
                    except RecursionError:
                        self.error(f"{flag}: {_TOO_DEEP}")
            i += 1
        strays += tokens[end:]
        return options

    def parse_args(self, argv) -> tuple:
        """(command, options): the given options' values by params key, flags as True."""
        argv = list(argv)
        top = _options()
        i = next((i for i, token in enumerate(argv)
                  if token == "--" or self._classify(token, top) is None), len(argv))
        strays = []
        self._take(argv[:i], None, strays)
        if i == len(argv):
            self.error(f"a command is required; choose from {', '.join(_COMMANDS)}")
        command = argv[i]
        if command not in _COMMANDS:
            self.error(f"unknown command {command!r}; choose from {', '.join(_COMMANDS)}")
        options = self._take(argv[i + 1:], command, strays)
        if strays:
            self.error(f"unrecognized arguments: {' '.join(strays)}")
        return command, options


def build_parser() -> Parser:
    """The command-line parser."""
    return Parser()


def _read_json_file(path: str):
    """The JSON value in a file; a missing or unreadable file is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long
        raise PreconditionError(f"{path} does not hold valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionError(f"{path}: {_TOO_DEEP}") from exc


def _params(options: dict) -> dict:
    """A handler's params: --file's object, then --json's, then the options given.

    An option whose value is null or false leaves the key to the objects.
    """
    params = {}
    path = options.pop("file", None)
    if path:
        data = _read_json_file(path)
        if not isinstance(data, dict):
            raise PreconditionError("--file must contain a JSON object")
        params.update(data)
    inline = options.pop("json", None)
    if inline is not None:
        if not isinstance(inline, dict):
            raise PreconditionError("--json must be a JSON object")
        params.update(inline)
    params.update((k, v) for k, v in options.items() if v is not None and v is not False)
    return params


def _dump(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` plus a newline, in one pass.

    Python's C encoder ignores ``indent``, so ``json.dumps`` would run its
    pure-Python encoder on every result.  Here every container appends its
    pieces to one list, joined once, the newline last.  A str or int is
    written by the dict or list holding it, so ``value`` is never one: a
    result is a dict.  Types are matched exactly, so a bool is never an int.
    Keys, all str or all int, are sorted before int keys are quoted, as in
    ``json``.  Any other type, floats included (the package has none),
    raises ``TypeError``; an int past the digit limit raises ``ValueError``.
    """
    out = []
    _write(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, indent: str, out: list) -> None:
    """Append value, written at indent, to out: two or more like rows
    (``_like``) as one ``%`` on the row template repeated, or one join of
    scalar rows; anything else item by item."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        if value is not None and kind is not bool:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        out.append("null" if value is None else "true" if value else "false")
    elif not value:
        out.append("{}" if kind is dict else "[]")
    else:
        inner = indent + "  "
        if kind is dict:
            sep, close = "{" + inner, indent + "}"
            items = [(_label(k) + ": ", v) for k, v in sorted(value.items())]
        elif len(value) > 1 and (like := _like(value, inner)):
            rows = like[1] if like[0] == "%s" else [like[0]] * len(value)
            text = "[" + inner + ("," + inner).join(rows) + indent + "]"
            out.append(text if like[0] == "%s" else text % tuple(like[1]))
            return
        else:
            sep, close = "[" + inner, indent + "]"
            items = zip(repeat(""), value)
        for label, v in items:
            t = type(v)
            if t is str or t is int:
                out.append(sep + label + (_escape(v) if t is str else int.__repr__(v)))
            else:
                out.append(sep + label)
                _write(v, inner, out)
            sep = "," + inner
        out.append(close)


def _like(items, indent: str):
    """(template, args, width) when items are like rows, else None: the
    template writes one item at indent from ``width`` of the flat ``args``.
    Like rows are all str, all exact int or all bool (their texts, ``%s``),
    rows of exact ints of one length, and dicts with the same keys whose
    columns are like rows, their args interleaved."""
    kinds = set(map(type, items))
    if len(kinds) == 1 and kinds <= {str, int, bool}:
        text = {str: _escape, int: int.__repr__, bool: ("false", "true").__getitem__}[kinds.pop()]
        return "%s", list(map(text, items)), 1
    inner = indent + "  "
    sizes = set(map(len, items)) if kinds <= {list, tuple, dict} else ()
    if kinds <= {list, tuple} and len(sizes) == 1:
        flat = list(chain.from_iterable(items))
        if set(map(type, flat)) <= {int}:
            width = len(items[0])
            row = "[" + inner + ("," + inner).join(["%d"] * width) + indent + "]"
            return (row if width else "[]"), flat, width
    # every row has as many keys as all the rows together: the same keys
    elif kinds == {dict} and items[0] and sizes == {len(set().union(*items))}:
        names = sorted(items[0])
        columns = [_like(list(map(itemgetter(k), items)), inner) for k in names]
        if None not in columns:
            width = sum(c[2] for c in columns)
            args, at = [None] * (width * len(items)), 0
            for _, values, w in columns:
                for j in range(w):
                    args[at + j::width] = values[j::w]
                at += w
            row = ("," + inner).join([
                _label(k).replace("%", "%%") + ": " + c[0] for k, c in zip(names, columns)])
            return "{" + inner + row + indent + "}", args, width
    return None


def _label(key) -> str:
    """A dict key as JSON text: a str escaped, an int quoted."""
    if type(key) is str:
        return _escape(key)
    if type(key) is not int:
        raise TypeError(f"keys must be str or int, not {type(key).__name__}")
    return '"' + int.__repr__(key) + '"'


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {out_path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    command, options = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    out = options.pop("out", None)
    try:
        if command == "batch":
            given = [f"--{key}" for key in ("json", "verify") if options.get(key) is not None]
            if given:
                raise PreconditionError(
                    f"batch takes no {' or '.join(given)}: each entry carries its own arguments")
            if not options.get("file"):
                raise PreconditionError("batch needs --file with the entries")
            data = _read_json_file(options["file"])
            entries = data.get("entries") if isinstance(data, dict) else None
            if not isinstance(entries, list):
                raise PreconditionError("batch file needs an 'entries' list")
            result, code = run_batch(entries, options.get("parallel", 1))
            _emit(_dump(result), out)
            return code
        params = _params(options)
        result = run_command(command, params)
        wants_csv = (command == "fermat" and params.get("scan")) or (
            command == "charp" and params.get("csv")
        )
        if wants_csv:
            _emit(result["csv"], out)
        else:
            _emit(_dump(result), out)
        return 0
    except _HANDLED_ERRORS as exc:
        record = _error_record(exc)
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
