import argparse
import io
import json
import math
import contextlib
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import bdivkit.cli as cli_mod
import bdivkit.dcc as dcc_mod
from bdivkit.cli import main, run_batch, run_command
from bdivkit.exact import PreconditionError
from bdivkit.logpairs import LocalPair

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "ldisc": ["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "[1,1]", "--verify"],
    "lcoeff": ["lcoeff", "--pair", '{"n":2,"coeffs":["1/2","2/3"]}', "--v", "[2,1]", "--verify"],
    "ltrace": ["ltrace", "--pair", '{"n":2,"coeffs":["3/4","5/6"]}', "--fan",
               '{"n":2,"rays":[[1,0],[0,1],[1,1]],"cones":[[0,2],[1,2]]}', "--verify"],
    "mld": ["mld", "--pair", '{"n":2,"coeffs":["2/3","2/3"]}', "--verify"],
    "round-check": ["round-check", "--coeffs", '["1/2","2/5"]', "--m", "2", "--verify"],
    "fset": ["fset", "--model", '{"n":2,"coeffs":["1/2","2/3"]}', "--verify"],
    "weight": ["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
               '{"deviations":[{"v":[1,2],"value":"0"}]}'],
    "reduce": ["reduce", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
               '{"deviations":[{"v":[1,2],"value":"0"}]}'],
    # cuts that resolve: five pivots on a surface, taken out of angular
    # order, and nine on a threefold, in one cut at both deviations of the
    # fibre over 0 and at (1, 1, 1), with theta clipped to 0 at three pivots
    "reduce-resolve2d": ["reduce", "--model", '{"n":2,"coeffs":["3/4","1"]}', "--B",
                         '{"deviations":[{"v":[2,9],"value":"0"}]}'],
    "reduce-resolve3d": ["reduce", "--model", '{"n":3,"coeffs":["2/5","1","1"]}', "--B",
                         '{"deviations":[{"v":[3,2,2],"value":"1/7"},{"v":[0,5,1],"value":"0"},'
                         '{"v":[0,1,3],"value":"1/2"}]}'],
    "verify": ["verify", "--state",
               '{"fan":{"n":2,"rays":[[1,0],[0,1]],"cones":[[0,1]]},'
               '"phi":["1/2","2/3"],"B":{"pair":["1/2","2/3"],"deviations":[]}}'],
    "closure": ["closure", "--base", '["1/2","2/3"]', "--denom-bound", "6", "--verify"],
    "chain": ["chain", "--set",
              json.dumps({
                  "kind": "closure",
                  "base": {"kind": "finite",
                           "values": [f"{r - 1}/{r}" for r in range(2, 11)]},
                  "denom_bound": 200,
              }),
              "--length", "4", "--denom-bound", "200", "--verify"],
    "dcc": ["dcc", "--set", '{"kind":"standard"}'],
    "sylvester": ["sylvester", "--k", "5", "--verify"],
    "minvol": ["minvol", "--n", "2", "--verify"],
    "pnvol": ["pnvol", "--n", "1", "--coeffs", '["1/2","2/3","6/7"]', "--verify"],
    "polyvol": ["polyvol", "--polytope",
                '{"n":2,"normals":[[1,0],[0,1],[-1,-1],[-1,0]],'
                '"offsets":["0","0","1","1/2"]}', "--verify"],
    "hurwitz": ["hurwitz", "--g", "2", "--verify"],
    "product": ["product", "--n", "2", "--g", "2", "--verify"],
    "fermat": ["fermat", "--n", "5", "--m", "8", "--verify"],
    "fermat-scan": ["fermat", "--scan", "--n-max", "6"],
    "unitary": ["unitary", "--n", "1", "--q", "3", "--verify"],
    "charp": ["charp", "--q-max", "10", "--verify"],
    "constants": ["constants", "--n", "2", "--eps", "1", "--gamma0", "1",
                  "--delta", "1/42", "--verify"],
}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, _ = run_cli(CASES[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_text()
    assert out == expected


@pytest.mark.parametrize("name", ["minvol", "reduce", "charp"])
def test_byte_stability(name):
    first = run_cli(CASES[name])
    second = run_cli(CASES[name])
    assert first == second


def test_reduce_worked_example_terminates():
    code, out, _ = run_cli(
        [
            "reduce",
            "--model", '{"n":2,"coeffs":["1/2","1"]}',
            "--B", '{"deviations":[{"v":[1,2],"value":"0"}]}',
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["terminated_weight"] == -1
    assert data["verify_ok"] is True


def test_minvol_dimension_one():
    code, out, _ = run_cli(["minvol", "--n", "1"])
    assert code == 0
    assert json.loads(out)["volume"] == "1/42"


def test_fermat_scan_pass_column_flips_at_5():
    code, out, _ = run_cli(["fermat", "--scan", "--n-max", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    verdicts = {int(l.split(",")[0]): l.split(",")[-1] for l in lines[1:]}
    assert verdicts[4] == "fail" and verdicts[5] == "pass"
    assert all(verdicts[n] == "fail" for n in range(1, 5))
    assert all(verdicts[n] == "pass" for n in range(5, 11))


def test_exit_code_2_on_precondition():
    code, out, err = run_cli(["hurwitz", "--g", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["exit_code"] == 2


def test_exit_code_2_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_exit_code_2_on_missing_argument():
    code, _, err = run_cli(["minvol"])
    assert code == 2
    assert "exit_code" in json.loads(err)


def test_verify_subcommand_reports_planted_violation():
    state = {
        "fan": {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2], [1, 2]]},
        "phi": ["1/2", "1/2", "1"],
        "B": {
            "pair": ["1/2", "1/2"],
            "deviations": [{"v": [1, 1], "value": "0"}],
        },
    }
    code, out, _ = run_cli(["verify", "--state", json.dumps(state)])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is False
    assert data["violation"]["v"] == [1, 1]


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "res.json"
    code, out, _ = run_cli(["minvol", "--n", "1", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["volume"] == "1/42"


def test_file_flag_supplies_inputs(tmp_path):
    payload = tmp_path / "input.json"
    payload.write_text(
        json.dumps(
            {
                "model": {"n": 2, "coeffs": ["1/2", "1"]},
                "B": {"deviations": [{"v": [1, 2], "value": "0"}]},
            }
        )
    )
    code, out, _ = run_cli(["reduce", "--file", str(payload)])
    assert code == 0
    assert json.loads(out)["terminated_weight"] == -1


def test_batch_golden_and_parallel_determinism():
    argv = ["batch", "--file", str(GOLDEN / "batch_input.json")]
    code1, out1, _ = run_cli(argv + ["--parallel", "1"])
    code8, out8, _ = run_cli(argv + ["--parallel", "8"])
    assert out1 == out8
    assert code1 == code8 == 2  # one entry violates a precondition
    assert out1 == (GOLDEN / "batch.out").read_text()
    data = json.loads(out1)
    assert data["first_error"] == "bad"
    assert data["results"]["syl"]["status"] == "ok"
    assert data["results"]["bad"]["exit_code"] == 2


def test_run_batch_rejects_duplicate_ids():
    from bdivkit.exact import PreconditionError

    entries = [
        {"id": "x", "command": "minvol", "args": {"n": 1}},
        {"id": "x", "command": "minvol", "args": {"n": 2}},
    ]
    with pytest.raises(PreconditionError):
        run_batch(entries, 1)


@pytest.mark.parametrize("ids", [
    pytest.param([["a"], "b"], id="a list id"),
    pytest.param([1, "b"], id="integer and string ids"),
    pytest.param([1, "1"], id="1 beside '1'"),
    pytest.param([True, 2], id="a bool beside an integer"),
    pytest.param(["a", None], id="a null id"),
])
def test_batch_ids_must_be_unique_strings_or_integers(tmp_path, ids):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"entries": [
        {"id": i, "command": "minvol", "args": {"n": 1}} for i in ids]}))
    code, out, err = run_cli(["batch", "--file", str(path)])
    assert code == 2 and out == ""
    assert "all strings or all integers" in json.loads(err)["error"]


def test_batch_accepts_integer_ids():
    entries = [{"id": i, "command": "minvol", "args": {"n": i}} for i in (2, 1)]
    result, code = run_batch(entries)
    assert code == 0 and result["first_error"] is None
    assert json.loads(json.dumps(result, sort_keys=True))["results"]["1"]["output"]["n"] == 1


def test_batch_output_is_json_dumps_with_int_ids_sorted_as_ints(tmp_path):
    entries = [{"id": i, "command": "minvol", "args": {"n": n}} for i, n in ((10, 1), (2, 2))]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"entries": entries}))
    result, _ = run_batch(entries)
    code, out, err = run_cli(["batch", "--file", str(path)])
    assert (code, err) == (0, "")
    assert out == json.dumps(result, sort_keys=True, indent=2) + "\n"
    assert out.index('"2": {') < out.index('"10": {')
    target = tmp_path / "out.json"
    code, nothing, _ = run_cli(["batch", "--file", str(path), "--out", str(target)])
    assert (code, nothing) == (0, "")
    assert target.read_bytes() == out.encode()
    # CSV output bypasses the writer
    code, out, _ = run_cli(["charp", "--q-max", "10", "--csv"])
    assert code == 0
    assert out == run_command("charp", {"q_max": 10, "csv": True})["csv"]


def test_batch_entry_with_non_integer_argument_exits_2():
    entries = [
        {"id": "ok", "command": "minvol", "args": {"n": 1}},
        {"id": "bad", "command": "minvol", "args": {"n": "abc"}},
    ]
    result, code = run_batch(entries, 2)
    assert code == 2
    assert result["first_error"] == "bad"
    assert result["results"]["bad"]["exit_code"] == 2
    assert "'n'" in result["results"]["bad"]["error"]
    assert result["results"]["ok"]["status"] == "ok"


def test_run_command_unknown():
    from bdivkit.exact import PreconditionError

    # batch runs only from main; a list is not a command name
    for name in ("nope", "batch", ["minvol"]):
        with pytest.raises(PreconditionError):
            run_command(name, {})


def test_verify_accepts_reduce_output():
    code, out, _ = run_cli(CASES["reduce"])
    assert code == 0
    final = json.loads(out)["final"]
    code2, out2, _ = run_cli(["verify", "--state", json.dumps(final)])
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_inline_json_flag():
    code, out, _ = run_cli(["minvol", "--json", '{"n": 1}'])
    assert code == 0
    assert json.loads(out)["volume"] == "1/42"


def test_charp_csv_mode():
    code, out, _ = run_cli(["charp", "--q-max", "10", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,g,vol,order,bound,ok"
    assert lines[1].startswith("3,3,4,6048,55296,pass")
    assert all(l.endswith("pass") for l in lines[1:])


_DEEP_LIST = "[" * 5000 + "]" * 5000
_DEEP_SET = '{"kind":"finite","values":["1/2"]}'
for _ in range(700):
    _DEEP_SET = f'{{"kind":"closure","denom_bound":10,"base":{_DEEP_SET}}}'

# the standard coefficients up to 23/24 close to millions of members below
# the denominator bound
_CLOSURE_PAST_THE_CAP = ["closure", "--base", json.dumps([f"{r - 1}/{r}" for r in range(2, 24)]),
                         "--denom-bound", "1000000"]

# 22 rows in dimension 4 give binom(22, 4) = 7315 vertex subsets
_POLYTOPE_PAST_THE_CAP = ["polyvol", "--polytope", json.dumps({
    "n": 4,
    "normals": [[int(j == i) * s for j in range(4)] for i in range(4) for s in (1, -1)]
               + [[1, 1, 1, 1]] * 14,
    "offsets": ["1"] * 22})]

# a reduction that takes a few tenths of a second
_SLOW_REDUCE = ["reduce", "--model", '{"n":2,"coeffs":["40/41","41/42"]}', "--B",
                '{"deviations":[{"v":[20,19],"value":"0"}]}']

# the closure of {1/2} with 1 in its base, as a key that no longer exists
_INCLUDE_ONE = ('{"kind":"closure","base":{"kind":"finite","values":["1/2"]},'
                '"denom_bound":2,"include_one":true}')

# kind -> (a description with a key the kind does not read, that key)
_STRAY_KEYS = {
    "finite": ('{"kind":"finite","values":["1/2"],"junk":1}', "'junk'"),
    "standard": ('{"kind":"standard","values":["1/2"]}', "'values'"),
    "union": ('{"kind":"union","members":[{"kind":"standard"}],"denom_bound":2}',
              "'denom_bound'"),
    "closure": ('{"kind":"closure","base":{"kind":"standard"},"denom_bound":2,"members":[]}',
                "'members'"),
}

# (140/141, 140/141) has 10,011 prefixes of positive pullback
_PAST_THE_PREFIX_CAP = ["fset", "--model", '{"n":2,"coeffs":["140/141","140/141"]}']

# a chain one member longer than the cap
_CHAIN_PAST_THE_LENGTH_CAP = ["chain", "--set", '{"kind":"standard"}', "--length", "2001",
                              "--denom-bound", "100000", "--verify"]

# five closures, one more than a description may hold
_FIVE_CLOSURES = ["dcc", "--set", json.dumps({"kind": "union", "members": [
    {"kind": "closure", "base": {"kind": "standard"}, "denom_bound": d}
    for d in range(1996, 2001)]})]

# the 2,192 reduced fractions below 1/2 with denominators up to 120: no two
# have a nonnegative exceptional sum, so the base is the whole closure
_CLOSURE_BASE_PAST_THE_CAP = ["closure", "--base", json.dumps([
    f"{k}/{q}" for q in range(2, 121) for k in range(1, (q + 1) // 2) if math.gcd(k, q) == 1]),
    "--denom-bound", "120"]

def _prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# the standard coefficients (q-1)/q of the 590 prime powers q up to 4001 as a
# finite base: its common denominator lcm(1..4001) has 12 bits more than
# lcm(1..4000)
_PAST_THE_LCM_CAP = json.dumps([f"{q - 1}/{q}" for q in range(2, 4002) if _prime_power(q)])
_CLOSURE_PAST_THE_LCM_CAP = ["chain", "--set", json.dumps({
    "kind": "closure", "base": {"kind": "finite", "values": json.loads(_PAST_THE_LCM_CAP)},
    "denom_bound": 4001}), "--length", "1", "--denom-bound", "4001"]

# a closure over the closure of the standard set at a smaller bound: the
# inner one is listed as a base, and its 3,044 members at 100 are past the cap
_CLOSURE_OF_A_LONG_LISTING = ["chain", "--set", json.dumps({
    "kind": "closure", "denom_bound": 200,
    "base": {"kind": "closure", "denom_bound": 100, "base": {"kind": "standard"}}}),
    "--length", "2", "--denom-bound", "200"]

BAD_INPUTS = [
    ["ldisc", "--pair", '{"n":2,"coeffs":["1/2"]}', "--v", "[1,1]"],
    ["ldisc", "--pair", '{"n":2,"coeffs":["1/2","0.5"]}', "--v", "[1,1]"],
    ["lcoeff", "--pair", '{"n":2,"coeffs":["1/2","3/2"]}', "--v", "[1,1]"],
    ["lcoeff", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "[0,0]"],
    ["mld", "--pair", '{"n":0,"coeffs":[]}'],
    ["round-check", "--coeffs", '["1"]', "--m", "3"],
    ["round-check", "--coeffs", '["1/2"]', "--m", "0"],
    ["fset", "--model", '{"n":2,"coeffs":["1/2","1/0"]}'],
    ["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
     '{"deviations":[{"v":[0,1],"value":"0"}]}'],
    ["reduce", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
     '{"deviations":[{"v":[2,4],"value":"0"}]}'],
    ["reduce", "--model", '{"n":7,"coeffs":["0","0","0","0","0","0","0"]}',
     "--B", '{"deviations":[]}'],
    ["closure", "--base", '["1/2"]', "--denom-bound", "0"],
    ["chain", "--set", '{"kind":"mystery"}', "--length", "3",
     "--denom-bound", "10"],
    ["dcc", "--set",
     '{"kind":"closure","base":{"kind":"standard"},"denom_bound":-1}'],
    ["sylvester", "--k", "0"],
    ["minvol", "--n", "0"],
    ["minvol", "--json", '{"n":"abc"}'],
    ["pnvol", "--n", "2", "--coeffs", '["1/2","1/2"]'],
    ["polyvol", "--polytope",
     '{"n":2,"normals":[[0,0],[1,0],[0,1]],"offsets":["0","0","0"]}'],
    ["fermat", "--n", "3", "--m", "5"],
    ["fermat", "--scan", "--m-rule", "n+4"],
    ["unitary", "--n", "1", "--q", "12"],
    ["charp", "--q-max", "2"],
    ["constants", "--n", "2", "--eps", "-1", "--gamma0", "1", "--delta", "1/2"],
    ["batch", "--parallel", "2"],
    ["batch", "--file", str(GOLDEN / "batch_input.json"), "--parallel", "0"],
    # hand-built fans must subdivide the orthant; the ids are explicit so
    # that the entries above keep theirs
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1], [0, 2]]},
        "phi": ["1/2", "1/2", "1"], "B": {"pair": ["1/2", "1/2"], "deviations": []}})],
        id="verify overlapping cones"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2]]},
        "phi": ["1/2", "1/2", "1"], "B": {"pair": ["1/2", "1/2"], "deviations": []}})],
        id="verify one cone of two"),
    pytest.param(["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
                  '{"n":2,"rays":[[1,0],[0,1],[1,1]],"cones":[[0,1],[1,2]]}'],
                 id="ltrace overlapping cones"),
    # integers in JSON readers, files, and size caps
    pytest.param(["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
                  '{"n":"x","rays":[[1,0],[0,1]],"cones":[[0,1]]}'],
                 id="ltrace fan n not an integer"),
    pytest.param(["polyvol", "--polytope",
                  '{"n":"x","normals":[[1,0],[0,1],[-1,-1]],"offsets":["0","0","1"]}'],
                 id="polyvol n not an integer"),
    pytest.param(["ldisc", "--pair", '{"n":"x","coeffs":["1/2","1/2"]}', "--v", "[1,1]"],
                 id="ldisc pair n not an integer"),
    pytest.param(["verify", "--state",
                  '{"fan":{"n":2,"rays":[[1,0],["a",1]],"cones":[[0,1]]},'
                  '"phi":["1/2","1/2"],"B":{"pair":["1/2","1/2"],"deviations":[]}}'],
                 id="verify ray entry not an integer"),
    pytest.param(["dcc", "--set",
                  '{"kind":"closure","base":{"kind":"standard"},"denom_bound":"x"}'],
                 id="dcc denom_bound not an integer"),
    pytest.param(["minvol", "--file", str(GOLDEN / "no-such-file.json")],
                 id="missing --file"),
    pytest.param(["sylvester", "--k", "15"], id="sylvester k past the cap"),
    pytest.param(["sylvester", "--k", "40"], id="sylvester k far past the cap"),
    pytest.param(["minvol", "--n", "10"], id="minvol n past the cap"),
    pytest.param(["closure", "--base", "5", "--denom-bound", "5"], id="closure base not a list"),
    pytest.param(["round-check", "--coeffs", "5", "--m", "3"], id="round-check coeffs not a list"),
    pytest.param(["pnvol", "--n", "2", "--coeffs", "5"], id="pnvol coeffs not a list"),
    # results past Python's int-to-decimal digit limit, and unbounded sizes
    pytest.param(["constants", "--n", "200", "--eps", "1", "--gamma0", "1", "--delta", "1/2"],
                 id="constants past the digit limit"),
    pytest.param(["pnvol", "--sylvester", "--n", "10"], id="pnvol sylvester past the digit limit"),
    pytest.param(["fermat", "--n", "100000", "--m", "100003"], id="fermat past the digit limit"),
    pytest.param(["unitary", "--n", "100000"], id="unitary n past the cap"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--stratum", "5"],
                 id="weight stratum not a list"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--stratum", "[9]"],
                 id="weight stratum index out of range"),
    pytest.param(["constants", "--n", "2000", "--eps", "1", "--gamma0", "1", "--delta", "1/2"],
                 id="constants power past the digit limit"),
    pytest.param(["fermat", "--scan", "--n-max", "3000"], id="fermat scan n_max past the cap"),
    pytest.param(["charp", "--q-max", "100000"], id="charp q_max past the cap"),
    # an explicit zero or negative value is not the default
    pytest.param(["fermat", "--scan", "--n-max", "0"], id="fermat scan n_max 0"),
    pytest.param(["dcc", "--set", '{"kind":"standard"}', "--rounds", "-1", "--max-size", "-5"],
                 id="dcc negative rounds and max_size"),
    pytest.param(["dcc", "--set", '{"kind":"standard"}', "--threshold", "0"],
                 id="dcc threshold 0"),
    pytest.param(CASES["chain"][:-2] + ["0"], id="chain denom_bound 0"),
    # an output path that cannot be written
    pytest.param(["minvol", "--n", "1", "--out", "."], id="--out a directory"),
    pytest.param(["minvol", "--n", "1", "--out", str(GOLDEN / "no-such-dir" / "x.json")],
                 id="--out in a missing directory"),
    pytest.param(["batch", "--out", ".", "--file", str(GOLDEN / "batch_input.json")],
                 id="batch --out a directory"),
    # JSON nested past Python's recursion limit, and a set description deeper
    # than the cap
    pytest.param(["sylvester", "--json", _DEEP_LIST], id="--json nested too deeply"),
    pytest.param(["ldisc", "--pair", _DEEP_LIST, "--v", "[1,1]"], id="--pair nested too deeply"),
    pytest.param(["hurwitz", "--file", str(GOLDEN / "deep_nesting.json")],
                 id="--file nested too deeply"),
    pytest.param(["batch", "--parallel=2", "--file", str(GOLDEN / "deep_nesting.json")],
                 id="batch file nested too deeply"),
    pytest.param(["chain", "--set", _DEEP_SET, "--length", "3"],
                 id="chain set description nested 700 levels"),
    # a closure past its size cap
    pytest.param(_CLOSURE_PAST_THE_CAP, id="closure past the size cap"),
    pytest.param(_POLYTOPE_PAST_THE_CAP, id="polyvol past the subset cap"),
    # every refusal a command line can reach; the argv orders keep the first
    # two tokens of each existing command line unique where they were
    pytest.param(["polyvol", "--polytope", '{"n":5,"normals":[[1,0,0,0,0]],"offsets":["0"]}'],
                 id="polyvol dimension 5"),
    pytest.param(["polyvol", "--polytope",
                  '{"n":2,"normals":[[1,0],[0,1],[-1,-1]],"offsets":["0","0"]}'],
                 id="polyvol fewer offsets than normals"),
    pytest.param(["polyvol", "--polytope", '{"n":2,"normals":[[1,0],[0,1]],"offsets":["0","0"]}'],
                 id="polyvol too few halfspaces"),
    pytest.param(["polyvol", "--polytope",
                  '{"n":2,"normals":[[1,0],[0,1],[-1,-1,0]],"offsets":["0","0","1"]}'],
                 id="polyvol normal of the wrong length"),
    pytest.param(["polyvol", "--polytope", '{"n":2,"normals":5,"offsets":[]}'],
                 id="polyvol normals not a list"),
    pytest.param(["polyvol", "--polytope",
                  '{"n":2,"normals":[[1,0],[0,1],[1,1]],"offsets":["0","0","1"]}'],
                 id="polyvol unbounded"),
    pytest.param(["product", "--g", "2", "--n", "0"], id="product n 0"),
    pytest.param(["product", "--g", "1", "--n", "1"], id="product genus 1"),
    pytest.param(["constants", "--eps", "1", "--gamma0", "1", "--delta", "1/2", "--n", "0"],
                 id="constants n 0"),
    pytest.param(["constants", "--gamma0", "1/2", "--n", "1", "--eps", "1", "--delta", "1/2"],
                 id="constants gamma0 below 1"),
    pytest.param(["fermat", "--m", "5", "--n", "0"], id="fermat n 0"),
    pytest.param(["hurwitz", "--json", '{"g": 1}'], id="hurwitz genus 1"),
    pytest.param(["pnvol", "--coeffs", '["1"]', "--n", "0"], id="pnvol n 0"),
    pytest.param(["pnvol", "--coeffs", '["2","1/2","1/2"]', "--n", "1"],
                 id="pnvol coefficient above 1"),
    pytest.param(["pnvol", "--n", "0", "--sylvester"], id="pnvol sylvester n 0"),
    pytest.param(["unitary", "--q", "3", "--n", "0"], id="unitary n 0"),
    pytest.param(["unitary", "--q", "1", "--n", "1"], id="unitary q 1"),
    # the command line itself
    pytest.param(["ltrace", "--f", "x"], id="ambiguous option prefix"),
    pytest.param(["minvol", "-hx"], id="a value attached to -h"),
    pytest.param(["hurwitz", "--bogus", "1"], id="unknown option"),
    pytest.param(["unitary", "--q"], id="option without its value"),
    pytest.param(["sylvester", "--k=x"], id="option value not an integer"),
    pytest.param(["--verify"], id="no command"),
    pytest.param(["frobnicate", "--x"], id="unknown command with an option"),
    pytest.param(["minvol", "--verify"], id="missing argument"),
    pytest.param(["sylvester", "--file", str(GOLDEN / "fermat-scan.out")], id="--file not JSON"),
    pytest.param(["sylvester", "--file", str(GOLDEN / "not_an_object.json")],
                 id="--file not an object"),
    pytest.param(["hurwitz", "--json", "[1]"], id="--json not an object"),
    pytest.param(["batch", "--fi", str(GOLDEN / "not_an_object.json")],
                 id="batch file not an object"),
    pytest.param(["batch", "--fi", str(GOLDEN / "batch_entry_not_object.json")],
                 id="batch entry not an object"),
    pytest.param(["batch", "--fi", str(GOLDEN / "batch_duplicate_ids.json")],
                 id="batch duplicate ids"),
    # coefficient sets
    pytest.param(["dcc", "--set", '{"kind":"finite","values":["2"]}'], id="dcc value above 1"),
    pytest.param(["dcc", "--set", '{"kind":"union","members":[]}'], id="dcc empty union"),
    pytest.param(["dcc", "--set", '{"kind":"union","members":[5]}'],
                 id="dcc member not an object"),
    pytest.param(["dcc", "--set", '{"kind":"finite","values":5}'], id="dcc values not a list"),
    pytest.param(["closure", "--base", '["2"]', "--denom-bound", "5"],
                 id="closure base value above 1"),
    pytest.param(["chain", "--set", '{"kind":"standard"}', "--length", "0"], id="chain length 0"),
    # rationals, valuations and pairs
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":[true,"1/2"]}', "--v", "[1,1]"],
                 id="ldisc bool coefficient"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":[0.5,"1/2"]}', "--v", "[1,1]"],
                 id="ldisc float coefficient"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "5"],
                 id="ldisc valuation not a list"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "[]"],
                 id="ldisc empty valuation"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", '["a",1]'],
                 id="ldisc valuation entry not an integer"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "[-1,1]"],
                 id="ldisc valuation with a negative entry"),
    pytest.param(["ldisc", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--v", "[1,1,1]"],
                 id="ldisc valuation of another dimension"),
    pytest.param(["ldisc", "--pair", "[1]", "--v", "[1,1]"], id="ldisc pair not an object"),
    # b-divisors and states
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":[{"v":[1,1,1],"value":"0"}]}'],
                 id="weight deviation of another dimension"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":[{"v":[1,2],"value":"0"},{"v":[1,2],"value":"1/2"}]}'],
                 id="weight deviation listed twice"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B", "[1]"],
                 id="weight B not an object"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":5}'], id="weight deviations not a list"),
    pytest.param(["reduce", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"pair":["1/3","1"],"deviations":[]}'], id="reduce B pair not the model's"),
    pytest.param(["reduce", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"pair":["1/2","1","1"],"deviations":[]}'],
                 id="reduce B of another dimension"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": ["1/2", "1/2"], "B": {"deviations": []}})], id="verify B without pair"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": ["1/2"], "B": {"pair": ["1/2", "1/2"], "deviations": []}})],
        id="verify phi shorter than the rays"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": ["1/2", "1/2"], "B": {"pair": ["1/2", "1/2", "1/2"], "deviations": []}})],
        id="verify B of another dimension"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": 5, "B": {"pair": ["1/2", "1/2"], "deviations": []}})],
        id="verify phi not a list"),
    # hand-built fans
    pytest.param(["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
                  '{"n":3,"rays":[[1,0,0],[0,1,0],[0,0,1]],"cones":[[0,1,2]]}'],
                 id="ltrace fan of another dimension"),
    *(pytest.param(["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan", fan],
                   id=f"ltrace {cause}") for cause, fan in [
        ("fan dimension 0", '{"n":0,"rays":[],"cones":[]}'),
        ("ray of another length", '{"n":2,"rays":[[1,0],[0,1,0]],"cones":[[0,1]]}'),
        ("ray with a negative entry", '{"n":2,"rays":[[1,0],[-1,1]],"cones":[[0,1]]}'),
        ("ray not primitive", '{"n":2,"rays":[[1,0],[0,2]],"cones":[[0,1]]}'),
        ("ray listed twice", '{"n":2,"rays":[[1,0],[0,1],[1,0]],"cones":[[0,1]]}'),
        ("cone of one ray", '{"n":2,"rays":[[1,0],[0,1]],"cones":[[0]]}'),
        ("cone repeating a ray", '{"n":2,"rays":[[1,0],[0,1]],"cones":[[0,0]]}'),
        ("cone naming a missing ray", '{"n":2,"rays":[[1,0],[0,1]],"cones":[[0,5]]}'),
        ("fan without rays", '{"n":2}'),
        ("3-D cone of dependent rays",
         '{"n":3,"rays":[[1,0,0],[0,1,0],[0,0,1],[1,1,0]],"cones":[[0,1,3],[0,2,3],[1,2,3]]}'),
        ("interior facet on one cone", '{"n":2,"rays":[[1,0],[0,1],[1,1],[1,2]],'
                                       '"cones":[[0,2],[1,3]]}'),
        ("cones folded over a facet", '{"n":2,"rays":[[1,0],[0,1],[1,2],[1,1]],'
                                      '"cones":[[0,2],[1,3],[2,3]]}'),
        # two subdivisions of the orthant on separate boundary edges: every
        # facet passes, and the cones fill the orthant twice
        ("cones filling the orthant twice", json.dumps({
            "n": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1],
                             [2, 1, 0], [0, 2, 1], [1, 0, 2]],
            "cones": [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5],
                      [0, 6, 8], [6, 1, 7], [8, 7, 2], [6, 7, 8]]})),
    ]),
    # a count past the digit limit that only printing it can find; "--n=" keeps
    # the first two tokens, which name the full-parser case, new
    pytest.param(["product", "--n=2000", "--g", "1000000"], id="product past the digit limit"),
    # the verifier evaluates only fan rays and listed deviations, so neither
    # command has a box option; the parser refuses it before any reduction
    pytest.param(CASES["reduce"] + ["--box", "8"], id="reduce --box"),
    pytest.param(CASES["reduce"] + ["--verify", "--box=16"], id="reduce --box with --verify"),
    pytest.param(_SLOW_REDUCE + ["--box", "0"], id="reduce --box before the cut"),
    pytest.param(CASES["verify"] + ["--box", "6"], id="verify --box"),
    # a stratum is a set of components: no index twice, and not empty
    pytest.param(CASES["weight"] + ["--stratum", "[2,2,1]"],
                 id="weight stratum listing an index twice"),
    pytest.param(CASES["weight"] + ["--stratum", "[]"], id="weight empty stratum"),
    # a params key the command does not read, from --json or --file
    pytest.param(["reduce", "--json", json.dumps({
        "model": {"n": 2, "coeffs": ["1/2", "1"]},
        "B": {"deviations": [{"v": [1, 2], "value": "0"}]}, "box": 8, "frobnicate": 1})],
        id="reduce box and a stray key in --json"),
    pytest.param(["minvol", "--n=1", "--file", str(GOLDEN / "minvol.out")],
                 id="minvol output keys in --file"),
    # B's trace on the model must be the model, for weight as for reduce
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"pair":["1/4","1"],"deviations":[]}'],
                 id="weight B pair disagrees with the model"),
    # chain has no chain length to set: --threshold is dcc's alone
    pytest.param(["chain", "--threshold", "5"] + CASES["chain"][1:], id="chain --threshold"),
    # a string where a list belongs, which a reader would take one character
    # at a time, and the objects whose readers catch a wrong type
    pytest.param(["dcc", "--set", '{"kind":"finite","values":"10"}'], id="dcc values a string"),
    pytest.param(["polyvol", "--polytope",
                  '{"n":2,"normals":["10","01",[-1,-1]],"offsets":["0","0","1"]}'],
                 id="polyvol normals as strings"),
    pytest.param(["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
                  '{"n":2,"rays":["10","01"],"cones":["01"]}'], id="ltrace fan rays as strings"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":[{"v":"12","value":"0"}]}'], id="weight deviation v a string"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": "11", "B": {"pair": ["1", "1"], "deviations": []}})], id="verify phi a string"),
    pytest.param(["polyvol", "--polytope", "5"], id="polyvol polytope not an object"),
    pytest.param(["verify", "--state", "[]"], id="verify state not an object"),
    pytest.param(["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":[5]}'], id="weight deviation not an object"),
    # a key missing inside a JSON argument
    pytest.param(["polyvol", "--polytope", '{"n":2}'], id="polyvol polytope without normals"),
    pytest.param(["reduce", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
                  '{"deviations":[{"value":"0"}]}'], id="reduce deviation without v"),
    pytest.param(["dcc", "--set", '{"kind":"finite"}'], id="dcc finite set without values"),
    pytest.param(["chain", "--set", '{"kind":"closure","base":{"kind":"standard"}}',
                  "--length", "3"], id="chain closure without denom_bound"),
    pytest.param(["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "B": {"pair": ["1/2", "1/2"], "deviations": []}})], id="verify state without phi"),
    pytest.param(["ldisc", "--pair", '{"n":2}', "--v", "[1,1]"], id="ldisc pair without coeffs"),
    # 1 is in a closure's base when the base lists it: no option or key says so
    pytest.param(CASES["closure"] + ["--include-one"], id="closure --include-one"),
    pytest.param(["dcc", "--set", _INCLUDE_ONE], id="dcc closure with include_one"),
    # a description key its kind does not read, in each kind
    *(pytest.param(["dcc", "--set", desc], id=f"dcc {kind} with a stray key")
      for kind, (desc, _) in _STRAY_KEYS.items()),
    # a model with more prefixes of positive pullback than the cap
    pytest.param(_PAST_THE_PREFIX_CAP, id="fset past the prefix cap"),
    # the search's rounds and sum cap are fixed, no option or key
    pytest.param(CASES["chain"] + ["--rounds", "3"], id="chain --rounds"),
    pytest.param(CASES["dcc"] + ["--max-size", "4000"], id="dcc --max-size"),
    pytest.param(["dcc", "--json", json.dumps({"set": {"kind": "standard"}, "rounds": 3})],
                 id="dcc --json with rounds"),
    # a chain and a witness longer than the size cap, and a description
    # holding more closures than its cap
    pytest.param(CASES["dcc"] + ["--threshold", "2001"], id="dcc threshold past the size cap"),
    pytest.param(_FIVE_CLOSURES, id="dcc on five closures"),
    # a closure's base is held to the size cap, and its common denominator to a cap
    pytest.param(_CLOSURE_BASE_PAST_THE_CAP, id="closure base past the size cap"),
    # batch entries carry their own arguments: batch reads no --json or --verify
    pytest.param(["batch", "--json", '{"junk":1}', "--file", str(GOLDEN / "batch_input.json")],
                 id="batch --json"),
    pytest.param(["batch", "--verify", "--file", str(GOLDEN / "batch_input.json")],
                 id="batch --verify"),
    pytest.param(_CHAIN_PAST_THE_LENGTH_CAP, id="chain length past the size cap"),
    pytest.param(_CLOSURE_PAST_THE_LCM_CAP, id="chain closure base past the lcm cap"),
    # the verdict reads the whole set, so dcc takes no bound
    pytest.param(CASES["dcc"] + ["--denom-bound", "10"], id="dcc --denom-bound"),
    pytest.param(_CLOSURE_OF_A_LONG_LISTING, id="chain closure of a listing past the size cap"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a[:2]))
def test_malformed_inputs_exit_2_with_json_error(argv):
    code, out, err = _run_catching_exit(main, argv)  # an error in argv exits from the parser
    assert code == 2
    payload = json.loads(err)
    assert payload.get("exit_code") == 2 and "error" in payload


_DIGIT_LIMIT = f"{sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("argv, cause", [
    (["constants", "--n", "200", "--eps", "1", "--gamma0", "1", "--delta", "1/2"], _DIGIT_LIMIT),
    (["pnvol", "--sylvester", "--n", "10"], _DIGIT_LIMIT),
    (["fermat", "--n", "100000", "--m", "100003"], _DIGIT_LIMIT),
    (["unitary", "--n", "33"], "UNITARY_N_CAP = 32"),
    (["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--stratum", "[9]"],
     "stratum index 9 is outside 1..2"),
    (["constants", "--n", "2000", "--eps", "1", "--gamma0", "1", "--delta", "1/2"], _DIGIT_LIMIT),
    (["fermat", "--scan", "--n-max", "799"], "FERMAT_SCAN_N_CAP = 798"),
    (["charp", "--q-max", "10001"], "CHARP_Q_CAP = 10000"),
    (CASES["reduce"] + ["--box", "8"], "unrecognized arguments: --box 8"),
    (CASES["verify"] + ["--box", "6"], "unrecognized arguments: --box 6"),
    (["fermat", "--scan", "--n-max", "0"], "need n_max >= 1"),
    (["dcc", "--set", '{"kind":"standard"}', "--rounds", "-1", "--max-size", "-5"],
     "unrecognized arguments: --rounds -1 --max-size -5"),
    (["dcc", "--set", '{"kind":"standard"}', "--max-size", "-5"],
     "unrecognized arguments: --max-size -5"),
    (["dcc", "--set", '{"kind":"standard"}', "--threshold", "0"], "threshold must be >= 1"),
    (CASES["chain"][:-2] + ["0"], "denom_bound must be >= 1"),
    (["minvol", "--n", "1", "--out", "."], "cannot write ."),
    (_CLOSURE_PAST_THE_CAP, "CLOSURE_SIZE_CAP = 2000"),
    # integers are ints or their decimal text: no float is truncated, no bool taken
    (["minvol", "--json", '{"n": 1.9}'], "argument 'n' must be an integer, got 1.9"),
    (["minvol", "--json", '{"n": true}'], "argument 'n' must be an integer, got True"),
    (["hurwitz", "--json", '{"g": 2.5}'], "argument 'g' must be an integer, got 2.5"),
    (["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
      '{"n":2,"rays":[[1.0,0],[0,1]],"cones":[[0,1]]}'],
     "argument 'rays' must be an integer, got 1.0"),
    (_POLYTOPE_PAST_THE_CAP, "POLYTOPE_SUBSET_CAP = 6000"),
    (CASES["weight"] + ["--stratum", "[2,2,1]"], "stratum [2, 2, 1] lists an index twice"),
    (CASES["weight"] + ["--stratum", "[]"], "stratum must be a nonempty index set"),
    (["reduce", "--json", '{"box": 8, "frobnicate": 1}'],
     "reduce takes no argument 'box', 'frobnicate'"),
    (["minvol", "--n=1", "--file", str(GOLDEN / "minvol.out")],
     "minvol takes no argument 'verified', 'volume'"),
    (["chain", "--threshold", "5"] + CASES["chain"][1:], "unrecognized arguments: --threshold 5"),
    # a string is no list, not even of its characters (more in BAD_INPUTS)
    (["dcc", "--set", '{"kind":"union","members":"ab"}'],
     "expected a list of set descriptions, got 'ab'"),
    (["polyvol", "--polytope", '{"n":2,"normals":[[1,0],[0,1],[-1,-1]],"offsets":"001"}'],
     "expected a list of rationals, got '001'"),
    (["ltrace", "--pair", '{"n":2,"coeffs":["1/2","1/2"]}', "--fan",
      '{"n":2,"rays":[[1,0],[0,1]],"cones":["01"]}'],
     "expected a list of integers for 'cones', got '01'"),
    (["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B", '{"deviations":""}'],
     "expected a list of deviations, got ''"),
    # a key missing inside a JSON argument names its object, not a missing argument
    (["polyvol", "--polytope", '{"n":2}'], "malformed polytope JSON: 'normals'"),
    (["weight", "--model", '{"n":2,"coeffs":["1/2","1"]}', "--B",
      '{"deviations":[{"value":"0"}]}'], "malformed b-divisor JSON: 'v'"),
    (["dcc", "--set", '{"kind":"finite"}'], "malformed finite set description: 'values'"),
    (["dcc", "--set", '{"kind":"closure","base":{"kind":"standard"}}'],
     "malformed closure set description: 'denom_bound'"),
    (["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "B": {"pair": ["1/2", "1/2"], "deviations": []}})], "malformed state JSON: 'phi'"),
    (["ldisc", "--pair", '{"n":2}', "--v", "[1,1]"], "malformed pair JSON: 'coeffs'"),
    # a missing top-level parameter is still a missing argument
    (["ldisc", "--v", "[1,1]"], "missing argument 'pair'"),
    # the fermat scan has one rule, m = n + 3, and takes no option naming it
    (["fermat", "--scan", "--m-rule", "n+3"], "unrecognized arguments: --m-rule n+3"),
    # 1 is listed in a closure's base, and a description holds only its kind's keys
    (CASES["closure"] + ["--include-one"], "unrecognized arguments: --include-one"),
    (["dcc", "--set", _INCLUDE_ONE], "a closure set description takes no key 'include_one'"),
    *((["dcc", "--set", desc], f"a {kind} set description takes no key {key}")
      for kind, (desc, key) in _STRAY_KEYS.items()),
    (_PAST_THE_PREFIX_CAP, "PREFIX_CAP = 10000"),
    # 38/39 three times has 10,660 prefixes, which a klt cut would extract
    (["reduce", "--model", '{"n":3,"coeffs":["38/39","38/39","38/39"]}', "--B",
      '{"deviations":[{"v":[1,1,1],"value":"0"}]}'], "PREFIX_CAP = 10000"),
    # the search's rounds and sum cap are fixed
    (CASES["chain"] + ["--rounds", "3"], "unrecognized arguments: --rounds 3"),
    (["dcc", "--json", json.dumps({"set": {"kind": "standard"}, "rounds": 3, "max_size": 40})],
     "dcc takes no argument 'max_size', 'rounds'"),
    (_CHAIN_PAST_THE_LENGTH_CAP, "chain length 2001 is more than the cap CLOSURE_SIZE_CAP = 2000"),
    (_FIVE_CLOSURES, "holds 5 closures, more than the cap SET_CLOSURE_CAP = 4"),
    (_CLOSURE_BASE_PAST_THE_CAP, "more members than the cap CLOSURE_SIZE_CAP = 2000"),
    (_CLOSURE_PAST_THE_LCM_CAP, "5768 bits, more than the cap CLOSURE_LCM_BITS_CAP = 5756"),
    (["closure", "--base", _PAST_THE_LCM_CAP, "--denom-bound", "4001"],
     "5768 bits, more than the cap CLOSURE_LCM_BITS_CAP = 5756"),
    (CASES["dcc"] + ["--threshold", "2001"],
     "threshold 2001 is more than the cap CLOSURE_SIZE_CAP = 2000"),
    (CASES["dcc"] + ["--denom-bound", "10"], "unrecognized arguments: --denom-bound 10"),
    (["dcc", "--json", json.dumps({"set": {"kind": "standard"}, "denom_bound": 10})],
     "dcc takes no argument 'denom_bound'"),
    (["batch", "--json", '{"junk":1}', "--verify", "--file", str(GOLDEN / "batch_input.json")],
     "batch takes no --json or --verify"),
    (_CLOSURE_OF_A_LONG_LISTING, "the set has more members than the cap CLOSURE_SIZE_CAP = 2000"),
])
def test_errors_name_their_cause(argv, cause):
    code, _, err = _run_catching_exit(main, argv)  # an error in argv exits from the parser
    assert code == 2
    assert cause in json.loads(err)["error"]


def test_batch_refuses_an_entry_with_a_stray_key():
    result, code = run_batch([
        {"id": "a", "command": "minvol", "args": {"n": 1, "verify": True}},
        {"id": "b", "command": "minvol", "args": {"n": 1, "box": 8}},
    ])
    assert code == 2 and result["first_error"] == "b"
    assert result["results"]["b"] == {
        "status": "error", "exit_code": 2, "error": "minvol takes no argument 'box'"}


def test_ltrace_verify_outside_dimension_2_says_its_oracle_was_skipped():
    # the blow-up chain oracle covers surfaces only
    code, out, _ = run_cli([
        "ltrace", "--pair", '{"n":3,"coeffs":["3/4","5/6","1/2"]}', "--fan",
        '{"n":3,"rays":[[1,0,0],[0,1,0],[0,0,1],[1,1,1]],"cones":[[0,1,3],[0,2,3],[1,2,3]]}',
        "--verify"])
    assert code == 0
    assert json.loads(out)["verified"] == "oracle-skipped"


def test_lcoeff_verify_outside_dimension_2_says_its_oracle_was_skipped():
    # the only formula for n != 2 is pullback_coeff's own body
    code, out, _ = run_cli(["lcoeff", "--pair", '{"n":3,"coeffs":["1/2","2/3","3/4"]}',
                            "--v", "[1,1,0]", "--verify"])
    assert code == 0
    assert json.loads(out) == {"coeff": "1/6", "verified": "oracle-skipped"}


@pytest.mark.parametrize("coeffs, v, expected", [
    (["1", "1/2"], [10**12, 1], "1/2"),
    (["1", "1"], [10**12 + 1, 10**12], "1"),
])
def test_lcoeff_verify_walks_a_long_blowup_chain(coeffs, v, expected):
    # the oracle takes each run of equal blow-up steps at once
    code, out, _ = run_cli(["lcoeff", "--pair", json.dumps({"n": 2, "coeffs": coeffs}),
                            "--v", json.dumps(v), "--verify"])
    assert code == 0
    assert json.loads(out) == {"coeff": expected, "verified": True}
    fan = {"n": 2, "rays": [[1, 0], v, [0, 1]], "cones": [[0, 1], [1, 2]]}
    code, out, _ = run_cli(["ltrace", "--pair", json.dumps({"n": 2, "coeffs": coeffs}),
                            "--fan", json.dumps(fan), "--verify"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_reduce_verify_says_its_oracle_was_skipped():
    # verify_reduction runs on every output, --verify or not, and shares the
    # cut's pullback_gap and Fan.locate, so --verify adds only the label
    code, out, _ = run_cli(CASES["reduce"] + ["--verify"])
    assert code == 0
    data = json.loads(out)
    assert data.pop("verified") == "oracle-skipped"
    assert data == json.loads((GOLDEN / "reduce.out").read_text())


def test_mld_verify_says_its_oracle_was_skipped_past_the_box_cap():
    # the oracle's box for (0, 249/250, 249/250) has 4 * 504 * 504 > 10^6 points
    code, out, _ = run_cli(["mld", "--pair", '{"n":3,"coeffs":["0","249/250","249/250"]}',
                            "--verify"])
    assert code == 0
    assert json.loads(out) == {"klt": True, "minimizer": [1, 1, 1], "mld": "126/125",
                               "verified": "oracle-skipped"}


def test_mld_verify_skips_a_box_whose_sides_pass_a_machine_size():
    # a side of 2 * (10^30 + 1) points, past what len() of a range can report
    coeff = f"{10**30 - 1}/{10**30}"
    code, out, _ = run_cli(["mld", "--pair", json.dumps({"n": 2, "coeffs": ["0", coeff]}),
                            "--verify"])
    assert code == 0
    assert json.loads(out)["verified"] == "oracle-skipped"


def test_mld_oracle_scans_a_box_at_the_cap(monkeypatch):
    pair = LocalPair((Fraction(1, 2), Fraction(1, 2)))  # a box of 4 * 4 points
    monkeypatch.setattr(cli_mod, "ORACLE_BOX_CAP", 16)
    assert cli_mod._mld_bruteforce(pair) == (1, (1, 1))
    monkeypatch.setattr(cli_mod, "ORACLE_BOX_CAP", 15)
    assert cli_mod._mld_bruteforce(pair) is None


def test_fset_verify_says_its_oracle_was_skipped_past_the_box_cap():
    # six sides of 21 points: 8.6 * 10^7 > 10^6, scanned in 37 s before the cap
    start = time.perf_counter()
    code, out, _ = run_cli(["fset", "--model", json.dumps({"n": 6, "coeffs": ["8/9"] * 6}),
                            "--verify"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    data = json.loads(out)
    assert data["verified"] == "oracle-skipped" and (data["s"], data["w"]) == (6, 0)


def test_fset_oracle_scans_a_box_at_the_cap(monkeypatch):
    # two sides of 2 * 2 + 2 + 1 = 7 points for the coefficients 1/2
    argv = ["fset", "--model", '{"n":2,"coeffs":["1/2","1/2"]}', "--verify"]
    monkeypatch.setattr(cli_mod, "ORACLE_BOX_CAP", 49)
    code, out, _ = run_cli(argv)
    assert code == 0 and json.loads(out)["verified"] is True
    monkeypatch.setattr(cli_mod, "ORACLE_BOX_CAP", 48)
    code, out, _ = run_cli(argv)
    assert code == 0 and json.loads(out)["verified"] == "oracle-skipped"


def _parent_mld_bruteforce(pair, factor):
    """The Fraction oracle that the integer scan replaced, kept as the reference."""
    from itertools import product
    from math import ceil

    a0 = sum((1 - c for c in pair.coeffs), Fraction(0))
    box = [1 if c == 1 else max(1, factor * ceil(a0 / (1 - c))) for c in pair.coeffs]
    best = None
    best_v = None
    for v in product(*(range(1, b + 1) for b in box)):
        val = sum((e * (1 - c) for e, c in zip(v, pair.coeffs)), Fraction(0))
        if best is None or val < best or (val == best and v < best_v):
            best = val
            best_v = v
    return best, best_v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                          st.fractions(min_value=0, max_value=1, max_denominator=6)),
                min_size=1, max_size=3))
def test_mld_oracle_matches_the_fraction_oracle(coeffs):
    pair = LocalPair(tuple(coeffs))
    assert cli_mod._mld_bruteforce(pair) == _parent_mld_bruteforce(pair, 2)


def test_constants_refuses_a_huge_power_at_once():
    # (C n)^n has about n^2 log10(4n/eps) digits; it is refused from bit
    # lengths before any power that size is taken
    start = time.perf_counter()
    code, out, err = run_cli(["constants", "--n", "2000", "--eps", "1", "--gamma0", "1",
                              "--delta", "1/2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert _DIGIT_LIMIT in json.loads(err)["error"]


def test_closure_refuses_a_set_past_the_cap_at_once():
    start = time.perf_counter()
    code, out, _ = run_cli(_CLOSURE_PAST_THE_CAP)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""


def test_chains_over_the_standard_set_list_nothing():
    # the standard set and the Farey fractions are streamed and decided by
    # rule at any bound; nothing lists them
    start = time.perf_counter()
    code, out, _ = run_cli(["chain", "--set", '{"kind":"standard"}', "--length", "2",
                            "--denom-bound", "1000000000", "--verify"])
    assert code == 0 and json.loads(out)["chain"]["elements"] == ["999999999/1000000000", "999999998/999999999"]
    closure = json.dumps({"kind": "closure", "base": {"kind": "standard"}, "denom_bound": 4000})
    code, out, _ = run_cli(["chain", "--set", closure, "--length", "2000",
                            "--denom-bound", "4000", "--verify"])
    elements = json.loads(out)["chain"]["elements"]
    assert code == 0 and len(elements) == 2000
    assert elements[:2] == ["3999/4000", "3998/3999"] and elements[-1] == "2000/2001"
    code, out, _ = run_cli(["dcc", "--set", closure, "--verify"])
    assert code == 0 and json.loads(out)["witness"]["elements"] == ["1/2", "1/3", "1/4", "1/5", "1/6"]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("base, chain", [
    pytest.param('{"kind":"standard"}', ["9/10", "8/9"], id="the standard set"),
    pytest.param('{"kind":"union","members":[{"kind":"finite","values":["1/2"]},'
                 '{"kind":"finite","values":["1/3"]}]}', ["1/2", "1/3"], id="a union"),
])
def test_chain_lists_the_largest_members(base, chain):
    code, out, _ = run_cli(["chain", "--set", base, "--length", "2", "--denom-bound", "10",
                            "--verify"])
    assert code == 0 and json.loads(out) == {"chain": {"elements": chain}, "found": True,
                                             "verified": True}


@pytest.mark.parametrize("values", [["1/2", "2/3", "6/7"], ["1/2", "2/3", "3/4"]])
def test_dcc_on_a_closure_of_a_finite_base_is_dcc(values):
    # the closure lies in (1/L)Z in [0, 1]: at 200 it has 21 and 9 members
    code, out, _ = run_cli(["dcc", "--set", json.dumps({
        "kind": "closure", "base": {"kind": "finite", "values": values}, "denom_bound": 200}),
        "--verify"])
    assert code == 0 and json.loads(out)["verdict"] == "DCC"


def test_closure_bases_past_their_caps_are_refused_at_once():
    for argv, cap in [(_CLOSURE_BASE_PAST_THE_CAP, "CLOSURE_SIZE_CAP"),
                      (_CLOSURE_PAST_THE_LCM_CAP, "CLOSURE_LCM_BITS_CAP")]:
        start = time.perf_counter()
        code, _, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and cap in json.loads(err)["error"]


# the closure of the 389 values (p-1)/p for the largest primes p below 30,000,
# whose walk passes CLOSURE_SIZE_CAP after about 2 s
_LARGEST_PRIMES = [p for p in range(29999, 2, -2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
_PRIME_CLOSURE = json.dumps({"kind": "closure", "denom_bound": 30000, "base": {
    "kind": "finite", "values": [f"{p - 1}/{p}" for p in _LARGEST_PRIMES[:389]]}})


@pytest.mark.parametrize("desc, length, bound, elements", [
    ('{"kind":"closure","base":{"kind":"finite","values":["1/2","19999/20000"]},'
     '"denom_bound":20000}', 3, 20000, ["19999/20000", "9999/10000", "19997/20000"]),
    (_PRIME_CLOSURE, 5, 30000, ["29988/29989", "29982/29983", "29958/29959", "29946/29947",
                                "29926/29927"]),
])
def test_chain_verify_reads_a_walk_down_to_its_least_member(desc, length, bound, elements):
    # the oracle checks the chain against the walk's members down to its
    # last element, so it answers where `chain` does without listing the
    # closure whole
    start = time.perf_counter()
    code, out, err = run_cli(["chain", "--set", desc, "--length", str(length),
                              "--denom-bound", str(bound), "--verify"])
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert json.loads(out) == {"chain": {"elements": elements}, "found": True, "verified": True}


def test_chain_verify_on_a_closure_of_a_closure_reads_the_inner_stream():
    # pruned at one bound, the closure of a closure is the closure itself, so
    # the outer closure reads the inner one's stream instead of listing it
    # whole as its base, which passes CLOSURE_SIZE_CAP
    nested = json.dumps({"kind": "closure", "denom_bound": 30000,
                         "base": json.loads(_PRIME_CLOSURE)})
    start = time.perf_counter()
    code, out, err = run_cli(["chain", "--set", nested, "--length", "1",
                              "--denom-bound", "30000", "--verify"])
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert json.loads(out) == {"chain": {"elements": ["29988/29989"]}, "found": True,
                               "verified": True}


def test_the_lcm_cap_is_the_bits_of_the_standard_sets_at_its_cap():
    # the standard coefficients up to 3999/4000 are admitted as a finite base
    assert dcc_mod.CLOSURE_LCM_BITS_CAP == math.lcm(*range(1, 4001)).bit_length()


def test_dcc_long_chain_search_over_a_large_closure_is_bounded():
    # the closure of the standard coefficients up to 29/30 lies in (1/L)Z in
    # [0, 1], L = lcm(1..30), so it is finite and DCC: the verdict reads the
    # description and lists none of its members
    base = [f"{r - 1}/{r}" for r in range(2, 31)]
    start = time.perf_counter()
    code, out, _ = run_cli(["dcc", "--set", json.dumps({
        "kind": "closure", "denom_bound": 400, "base": {"kind": "finite", "values": base}}),
        "--threshold", "20", "--verify"])
    assert time.perf_counter() - start < 0.5
    assert code == 0 and json.loads(out)["verdict"] == "DCC"


def test_scan_caps_admit_their_largest_value():
    code, out, _ = run_cli(["fermat", "--scan", "--n-max", "798"])
    assert code == 0 and out.count("\n") == 799
    code, out, _ = run_cli(["charp", "--q-max", "10000", "--csv"])
    assert code == 0 and out.splitlines()[-1].startswith("9973,")


def test_verify_flag_catches_mismatch(monkeypatch):
    # sabotage the fast path; --verify must fail loudly with exit code 3
    import bdivkit.cli as cli_mod

    original = cli_mod.min_volume_candidate
    monkeypatch.setattr(
        cli_mod, "min_volume_candidate", lambda n: original(n) * 2
    )
    code, _, err = run_cli(["minvol", "--n", "1", "--verify"])
    assert code == 3
    assert json.loads(err)["exit_code"] == 3


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda prefixes: prefixes[:-1], id="a prefix dropped"),
    # 2 * (1 - 1/2) = 1: inside the oracle's box, outside the set
    pytest.param(lambda prefixes: prefixes + [(2, 0)], id="a prefix outside the set added"),
])
def test_fset_verify_rejects_a_wrong_prefix_set(monkeypatch, tamper):
    original = cli_mod.positive_pullback_prefixes
    monkeypatch.setattr(cli_mod, "positive_pullback_prefixes",
                        lambda model: tamper(list(original(model))))
    code, out, err = run_cli(CASES["fset"])
    assert code == 3 and out == ""
    assert json.loads(err)["exit_code"] == 3


# the closure of {1/2, 2/3} under the bound 6 is {0, 1/6, 1/3, 1/2, 2/3}; no
# two of the rest sum to 2/3 + 1, so only the base check can miss it
@pytest.mark.parametrize("dropped, cause", [
    pytest.param(Fraction(1, 6), "closure closedness", id="a generated member dropped"),
    pytest.param(Fraction(2, 3), "closure base membership", id="a base value dropped"),
])
def test_closure_verify_rejects_a_wrong_closure(monkeypatch, dropped, cause):
    original = cli_mod.materialize
    monkeypatch.setattr(cli_mod, "materialize",
                        lambda *args, **kwargs: [v for v in original(*args, **kwargs)
                                                 if v != dropped])
    code, out, err = run_cli(CASES["closure"])
    assert code == 3 and out == ""
    assert cause in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# the constants oracle: M_min in closed form, against counting up


def _unary_least_integer_above(y):
    """The least integer > y, found by counting up from 1 (for y >= 0)."""
    m = 1
    while not m > y:
        m += 1
    return m


def _constants_with_m_min(m_min_of):
    """effective_constants with M_min replaced by m_min_of(the true M_min)."""
    from bdivkit.bounds import BoundReport, effective_constants

    def patched(*args):
        report = effective_constants(*args)
        values = dict(report.values, M_min=m_min_of(report.values["M_min"]))
        return BoundReport(report.kind, values, report.notes)

    return patched


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(1, 24), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), eps=_SMALL_FRACTIONS, delta=_SMALL_FRACTIONS)
def test_constants_oracle_matches_unary_count(n, eps, delta):
    c = 2 * (1 + Fraction(4 * n) / eps) ** (n - 1)
    assume(c * n / delta <= 10**4)
    ref = _unary_least_integer_above(c * n / delta + 1)
    args = {"n": n, "eps": str(eps), "gamma0": "1", "delta": str(delta), "verify": True}
    # the report carries the reference, so --verify passes only if the oracle agrees
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_mod, "effective_constants", _constants_with_m_min(lambda _: ref))
        out = run_command("constants", args)
    assert out["verified"] is True and out["M_min"] == str(ref)


@pytest.mark.parametrize("argv", [
    pytest.param(CASES["constants"], id="integral C*n/delta"),
    pytest.param(["constants", "--n", "3", "--eps", "1", "--gamma0", "1", "--delta", "5/7",
                  "--verify"], id="fractional C*n/delta"),
])
@pytest.mark.parametrize("wrong", [
    pytest.param(lambda m: m - 1, id="one less"),
    pytest.param(lambda m: m + 1, id="one more"),
    pytest.param(Fraction, id="a Fraction"),
])
def test_constants_verify_rejects_a_wrong_m_min(monkeypatch, argv, wrong):
    monkeypatch.setattr(cli_mod, "effective_constants", _constants_with_m_min(wrong))
    code, out, err = run_cli(argv)
    assert code == 3 and out == ""
    assert json.loads(err)["exit_code"] == 3


def test_constants_verify_in_dimension_4_is_fast():
    start = time.perf_counter()
    code, out, _ = run_cli(["constants", "--n", "4", "--eps", "1/2", "--gamma0", "1",
                            "--delta", "1/1806", "--verify"])
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out)
    # C = 2 * 33^3 = 71874 and C*n/delta = 519217776, an integer
    assert data["verified"] is True and data["M_min"] == "519217778"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# fuzzing the JSON readers: malformed arguments exit 0 or 2, never 1 or 3

_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.sampled_from(["", "x", "1/2", "0", "1", "-1", "3/0", "1e400", "9" * 5000])
    | st.just(1e400) | st.just(0.5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "coeffs", "rays", "cones", "kind", "values", "base",
                         "members", "denom_bound", "v", "value", "pair",
                         "deviations", "normals", "offsets", "fan", "phi", "B"]),
        inner, max_size=4),
    max_leaves=12,
)

_FAN = {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2], [1, 2]]}
_PAIR = {"n": 2, "coeffs": ["1/2", "2/3"]}
# well-formed arguments whose parts the fuzzer replaces; every size is small
_TEMPLATES = {
    "ltrace": {"pair": _PAIR, "fan": _FAN},
    "verify": {"state": {"fan": _FAN, "phi": ["1/2", "2/3", "1/6"],
                         "B": {"pair": ["1/2", "2/3"], "deviations": []}}},
    "polyvol": {"polytope": {"n": 2, "normals": [[1, 0], [0, 1], [-1, -1]],
                             "offsets": ["0", "0", "1"]}},
    "ldisc": {"pair": _PAIR, "v": [1, 2]},
    "dcc": {"set": {"kind": "closure", "denom_bound": 12,
                    "base": {"kind": "finite", "values": ["1/2", "2/3"]}},
            "threshold": 3},
    "sylvester": {"k": 4},
    "minvol": {"n": 2},
    "constants": {"n": 2, "eps": "1", "gamma0": "1", "delta": "1/42", "verify": True},
    "unitary": {"n": 1, "q": 3, "verify": True},
    "weight": {"model": {"n": 2, "coeffs": ["1/2", "1"]},
               "B": {"deviations": [{"v": [1, 2], "value": "0"}]},
               "stratum": [1, 2], "verify": True},
    "pnvol": {"n": 1, "coeffs": ["1/2", "2/3", "6/7"], "sylvester": False, "verify": True},
    "fermat": {"n": 5, "m": 8, "verify": True},
    "reduce": {"model": {"n": 2, "coeffs": ["1/2", "1"]},
               "B": {"deviations": [{"v": [1, 2], "value": "0"}]}, "verify": True},
    "lcoeff": {"pair": _PAIR, "v": [2, 1], "verify": True},
    "mld": {"pair": _PAIR, "verify": True},
    "fset": {"model": _PAIR, "verify": True},
    "round-check": {"coeffs": ["1/2", "2/5"], "m": 2, "verify": True},
    "closure": {"base": ["1/2", "2/3", "1"], "denom_bound": 6, "verify": True},
    "chain": {"set": {"kind": "closure", "denom_bound": 12,
                      "base": {"kind": "finite", "values": ["1/2", "2/3", "3/4"]}},
              "length": 3, "denom_bound": 12, "verify": True},
    "hurwitz": {"g": 2, "verify": True},
    "product": {"n": 2, "g": 2, "verify": True},
    "charp": {"q_max": 10, "verify": True},
}


def _paths(value, prefix=()):
    """Every position in a JSON value that a fuzzed value can replace."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _replace(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replace(value[path[0]], path[1:], new)
    return out


@st.composite
def _fuzzed_command(draw):
    """A command from _TEMPLATES with one or two parts of its arguments replaced."""
    command = draw(st.sampled_from(sorted(_TEMPLATES)))
    args = _TEMPLATES[command]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(args))[1:]))
        args = _replace(args, path, draw(_SMALL_JSON))
    return command, args


@settings(max_examples=950, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fuzzed_command())
def test_fuzzed_arguments_exit_0_or_2(fuzzed):
    command, args = fuzzed
    code, out, err = run_cli([command, "--json", json.dumps(args)])
    assert code in (0, 2), (command, args, err)
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        record = json.loads(err)
        assert isinstance(record, dict) and record["exit_code"] == 2


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_fuzzed_command(), min_size=1, max_size=3))
def test_fuzzed_batch_files_exit_0_or_2(commands):
    ids = [f"entry {i}" for i in range(len(commands))]
    entries = [{"id": i, "command": command, "args": args}
               for i, (command, args) in zip(ids, commands)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, err = run_cli(["batch", "--file", str(path)])
    assert code in (0, 2), (entries, err)
    results = json.loads(out)["results"]
    assert sorted(results) == ids
    assert all(r["exit_code"] in (0, 2) for r in results.values()), results


# ---------------------------------------------------------------------------
# the parser against the argparse parser the command line had before, kept
# here as the reference: same exit codes, and the same params, --out path
# and --parallel for every command line both accept


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message, "exit_code": 2}, sort_keys=True), file=sys.stderr)
        raise SystemExit(2)


def _reference_json(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc


_RJ, _RI, _RF, _RS = {"type": _reference_json}, {"type": int}, {"action": "store_true"}, {}
_REFERENCE_COMMON = (("--out", _RS), ("--verify", _RF), ("--file", _RS),
                     ("--json", {"dest": "inline_json", "type": _reference_json}))
_REFERENCE_OPTIONS = {
    "ldisc": (("--pair", _RJ), ("--v", _RJ)),
    "lcoeff": (("--pair", _RJ), ("--v", _RJ)),
    "ltrace": (("--pair", _RJ), ("--fan", _RJ)),
    "mld": (("--pair", _RJ),),
    "round-check": (("--coeffs", _RJ), ("--m", _RI)),
    "fset": (("--model", _RJ),),
    "weight": (("--model", _RJ), ("--B", _RJ), ("--stratum", _RJ)),
    "reduce": (("--model", _RJ), ("--B", _RJ)),
    "verify": (("--state", _RJ),),
    "closure": (("--base", _RJ), ("--denom-bound", _RI)),
    "chain": (("--set", _RJ), ("--length", _RI), ("--denom-bound", _RI)),
    "dcc": (("--set", _RJ), ("--threshold", _RI)),
    "sylvester": (("--k", _RI),),
    "minvol": (("--n", _RI),),
    "pnvol": (("--n", _RI), ("--coeffs", _RJ), ("--sylvester", _RF)),
    "polyvol": (("--polytope", _RJ),),
    "hurwitz": (("--g", _RI),),
    "product": (("--n", _RI), ("--g", _RI)),
    "fermat": (("--n", _RI), ("--m", _RI), ("--scan", _RF), ("--n-max", _RI)),
    "unitary": (("--n", _RI), ("--q", _RI)),
    "charp": (("--q-max", _RI), ("--csv", _RF)),
    "constants": (("--n", _RI), ("--eps", _RS), ("--gamma0", _RS), ("--delta", _RS)),
    "batch": (("--parallel", {"type": int, "default": 1}),),
}


def _reference_build_parser():
    parser = _ReferenceParser(prog="bdivkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, own in _REFERENCE_OPTIONS.items():
        sub = subs.add_parser(name)
        for flag, kwargs in _REFERENCE_COMMON + own:
            sub.add_argument(flag, **kwargs)
    return parser


def _reference_collect_params(args) -> dict:
    params = {}
    if getattr(args, "file", None):
        data = cli_mod._read_json_file(args.file)
        if not isinstance(data, dict):
            raise PreconditionError("--file must contain a JSON object")
        params.update(data)
    inline = getattr(args, "inline_json", None)
    if inline is not None:
        if not isinstance(inline, dict):
            raise PreconditionError("--json must be a JSON object")
        params.update(inline)
    for flag, _ in _REFERENCE_OPTIONS[args.command]:
        key = flag[2:].replace("-", "_")
        val = getattr(args, key, None)
        if val is not None and val is not False:
            params[key] = val
    if getattr(args, "verify", False):
        params["verify"] = True
    return params


def _reference_main(argv) -> int:
    """``main`` as it was, on the reference parser."""
    args = _reference_build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            given = [flag for flag, value in (("--json", args.inline_json),
                                              ("--verify", args.verify or None))
                     if value is not None]
            if given:
                raise PreconditionError(
                    f"batch takes no {' or '.join(given)}: each entry carries its own arguments")
            if not getattr(args, "file", None):
                raise PreconditionError("batch needs --file with the entries")
            data = cli_mod._read_json_file(args.file)
            entries = data.get("entries") if isinstance(data, dict) else None
            if not isinstance(entries, list):
                raise PreconditionError("batch file needs an 'entries' list")
            result, code = cli_mod.run_batch(entries, args.parallel)
            cli_mod._emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
            return code
        params = _reference_collect_params(args)
        result = cli_mod.run_command(args.command, params)
        wants_csv = (args.command == "fermat" and params.get("scan")) or (
            args.command == "charp" and params.get("csv")
        )
        cli_mod._emit(result["csv"] if wants_csv
                      else json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    except cli_mod._HANDLED_ERRORS as exc:
        record = cli_mod._error_record(exc)
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return record["exit_code"]


def _run_catching_exit(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # help, or an error in argv itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _calls(run, argv) -> tuple:
    """run(argv)'s exit code and what it handed the commands and the output."""
    calls = []

    def command(name, params):
        calls.append(("run_command", name, params))
        return {"csv": ""}

    def batch(entries, parallel):
        calls.append(("run_batch", parallel))
        return {}, 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_mod, "run_command", command)
        mp.setattr(cli_mod, "run_batch", batch)
        mp.setattr(cli_mod, "_emit", lambda text, out: calls.append(("out", out)))
        code, _, _ = _run_catching_exit(run, argv)
    return code, calls


# values and stray tokens: negative numbers, a lone "-" and a token with a
# space are values; "--" ends the options; the rest starting with "-" are options
_VALUES = ["1", "0", "-3", "-2.5", "-.5", "x", "1/2", '{"n": 1}', "[1, 2]", "null", "false",
           "n+3", "", "-", "- 1", "-x", "--1", "-1e5", str(GOLDEN / "batch_input.json"),
           str(GOLDEN / "no-such-file.json")]
_STRAYS = ["-x", "--", "-", "--bogus", "--bogus=1", "stray", "-1", "-h", "--he", "--=x"]


@st.composite
def _option_tokens(draw, flags):
    flag = draw(st.sampled_from(flags))
    name = flag[:draw(st.integers(3, len(flag)))] if draw(st.booleans()) else flag
    form = draw(st.sampled_from(["separate", "separate", "attached", "attached", "alone",
                                 "stray"]))
    if form == "stray":
        return [draw(st.sampled_from(_STRAYS))]
    if form == "alone":  # a flag, or an option missing its value
        return [name]
    value = draw(st.sampled_from(_VALUES))
    return [name, value] if form == "separate" else [f"{name}={value}"]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(cli_mod._COMMANDS) + ["frobnicate"]))
    own = cli_mod._COMMANDS.get(command, cli_mod._COMMANDS["minvol"])[1]
    flags = [flag for flag, *_ in cli_mod._COMMON_OPTIONS + own]
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        argv += draw(_option_tokens(flags))
    if draw(st.integers(0, 7)) == 0:  # an option before the command
        argv = draw(_option_tokens(flags)) + argv
    if draw(st.integers(0, 15)) == 0:
        argv = argv[1:]
    return argv


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_parser_answers_as_the_reference_parser(argv):
    assert _calls(main, argv) == _calls(_reference_main, argv), argv


_ARGVS = [CASES[name] for name in sorted(CASES)] + [
    p.values[0] if hasattr(p, "values") else p for p in BAD_INPUTS
] + [["-h"], ["minvol", "-h"], ["frobnicate"], [], ["minvol", "--n", "x"],
     ["minvol", "--bogus", "1"], ["--verify", "minvol"], ["minvol", "--ver", "--n", "1"],
     ["minvol", "--n=2", "--n", "1"], ["ltrace", "-h", "--f"]]


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda a: " ".join(a[:2]) or "no command")
def test_command_parser_answers_as_the_full_parser(argv):
    """main on the parser answers as main on the argparse reference."""
    new = _run_catching_exit(main, argv)
    reference = _run_catching_exit(_reference_main, argv)
    assert new[0] == reference[0]
    if reference[0] == 0 and reference[1].startswith("usage:"):
        # help: the layout is the parser's own, not argparse's
        assert new[1].startswith("usage: bdivkit")
    else:
        assert new[1] == reference[1]


_REFERENCE_KIND = {int: int, _reference_json: json.loads, None: str}


@pytest.mark.parametrize("name", sorted(cli_mod._COMMANDS))
def test_command_parser_registers_what_the_full_parser_does(name):
    """Each command has the options of the argparse reference, with the same kind of value."""
    (subs,) = [a for a in _reference_build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    reference = {}
    for action in subs.choices[name]._actions:
        kind = cli_mod._FLAG if action.nargs == 0 else _REFERENCE_KIND[action.type]
        reference.update(dict.fromkeys(action.option_strings, kind))
    assert {flag: kind for flag, (_, kind) in cli_mod._options(name).items()} == reference


def test_help_lists_every_command_and_option():
    code, out, _ = _run_catching_exit(main, ["-h"])
    assert code == 0
    for name, (help_text, *_) in cli_mod._COMMANDS.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(help_text)}$", out, re.M), name
    assert set(cli_mod._COMMANDS) == set(_REFERENCE_OPTIONS)
    for name, own in _REFERENCE_OPTIONS.items():
        code, out, _ = _run_catching_exit(main, [name, "-h"])
        assert code == 0
        for flag, _ in _REFERENCE_COMMON + own:
            assert re.search(rf"^  {re.escape(flag)}( |$)", out, re.M), (name, flag)


def test_cli_imports_no_argparse_gettext_or_locale(tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(
        {"entries": [{"id": "a", "command": "minvol", "args": {"n": 1}}]}))
    script = (
        "import contextlib, io, sys\n"
        "from bdivkit.cli import main\n"
        f"for argv in ({CASES['reduce']!r}, ['batch', '--file', {str(batch)!r}],"
        " ['minvol', '-h']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            assert main(argv) == 0\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the result writer against json.dumps

_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.text(st.sampled_from('"\\/\x7fé \U0001f600\ud800')),
)
_INTS = st.one_of(st.integers(), st.integers(-(10**60), 10**60))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)
# str keys that a template could misread: %, quotes, backslashes, non-ASCII
_KEYS = st.one_of(_TEXT, st.text(st.sampled_from('%ds"\\é\U0001f600'), max_size=4))


def _rows(entries):
    """Two or more rows of one length (0, 1 or 3), each a list or a tuple."""
    row = lambda k: st.lists(entries, min_size=k, max_size=k).flatmap(
        lambda r: st.sampled_from([r, tuple(r)]))
    return st.sampled_from([0, 1, 3]).flatmap(
        lambda k: st.lists(row(k), min_size=2, max_size=5))


def _dict_rows(keys, values):
    """Two or more dicts, all with the same keys."""
    return st.sets(keys, max_size=4).flatmap(lambda names: st.lists(
        st.fixed_dictionaries({k: values for k in names}), min_size=2, max_size=5))


def _drop_a_key(rows):
    """The rows with one key taken out of one row."""
    i = len(rows) - 1
    return rows[:i] + [dict(list(rows[i].items())[1:])]


def _siblings(kids):
    """Lists of like items, which the writer renders as one row template
    repeated, and lists that differ from them in one place."""
    return st.one_of(
        # rows of one length, lists and tuples mixed
        _rows(_INTS),
        _rows(st.one_of(st.booleans(), _INTS)),
        _dict_rows(_KEYS, kids),
        _dict_rows(st.integers(-20, 20), kids),
        # a column of int rows of unequal length, and a row missing a key
        _dict_rows(_KEYS, st.lists(_INTS, max_size=3)),
        _dict_rows(_KEYS, _INTS).filter(lambda rows: rows[0]).map(_drop_a_key),
        # dicts of dicts, the inner ones again all with the same keys
        st.sets(_KEYS, max_size=3).flatmap(lambda inner: _dict_rows(
            _KEYS, st.fixed_dictionaries({k: _LEAVES for k in inner}))),
        st.lists(st.dictionaries(_KEYS, kids, max_size=3), min_size=2, max_size=4),
    )


_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=4),
        _siblings(kids),
    ),
    max_leaves=30,
)


@settings(max_examples=250, deadline=None)
@given(_JSON_VALUES)
@example([[True, 1], [2, 3]])
@example([(1, False), [2, 3]])
@example([{"%d": 1, "a%s": [2]}, {"%d": 3, "a%s": [4]}])
@example([{2: "a", 10: "b", -3: "c"}, {2: "d", 10: "e", -3: "f"}])
@example([{"r": {"x": [1, 2], "y": "p"}}, {"r": {"x": [3, 4], "y": "q"}}])
@example([[], []])
@example([[7], (8,)])
@example([{"r": [1, 2]}, {"r": [3]}])
@example([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
@example([{"ok": True, "q": "1/2"}, {"ok": False, "q": "%s"}])
@example([False, True, True])
def test_writer_equals_json_dumps(value):
    # a result is a dict, and a string is written by the container holding it
    result = {"value": value}
    assert cli_mod._dump(result) == json.dumps(result, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("place", [
    lambda big: big, lambda big: [big, 1], lambda big: [[1, big], [2, 3]],
    lambda big: [{"x": 1}, {"x": -big}],
], ids=["single", "int row", "row of int rows", "dict rows"])
def test_writer_raises_past_the_digit_limit(place):
    big = 10 ** sys.get_int_max_str_digits()  # one digit past the limit
    with pytest.raises(ValueError, match="limit"):
        cli_mod._dump({"value": place(big)})


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {1}], ids=["float", "Fraction", "set"])
def test_writer_refuses_types_outside_json(bad):
    for value in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            cli_mod._dump(value)


# ---------------------------------------------------------------------------
# exit 3 and writer refusals that no command line reaches, with the fault planted


def test_chain_verify_rejects_a_chain_outside_its_set(monkeypatch):
    monkeypatch.setattr(cli_mod, "members_among", lambda *args: set())
    code, out, err = run_cli(CASES["chain"])
    assert code == 3 and out == ""
    # the values as they are printed, not as Fraction reprs
    assert json.loads(err)["error"] == (
        "verification mismatch in chain membership: fast path [9/10, 8/9, 7/8, 6/7] vs oracle 9/10")


def test_dcc_verify_rejects_a_witness_that_is_no_unit_fraction(monkeypatch):
    original = cli_mod.dcc_verdict

    def tampered(desc, length):
        verdict = original(desc, length)
        return dcc_mod.DccVerdict(verdict.verdict, dcc_mod.Chain(("2/3", "1/2")), verdict.reason)

    monkeypatch.setattr(cli_mod, "dcc_verdict", tampered)
    code, out, err = run_cli(["dcc", "--set", '{"kind":"closure","base":{"kind":"standard"},'
                                              '"denom_bound":5}', "--verify"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "verification mismatch in dcc witness: fast path 2/3 vs oracle 1/3"


def test_reduce_refuses_an_output_the_verifier_refutes(monkeypatch):
    # run_reduction checks its output once, with the verifier planted to refute it
    import bdivkit.reduction as reduction_mod

    def refuted(state):
        return reduction_mod.VerifyReport(ok=False, checked=1, violation=((1, 1), Fraction(1), Fraction(0)))

    monkeypatch.setattr(reduction_mod, "verify_reduction", refuted)
    code, out, err = run_cli(CASES["reduce"])
    assert code == 3 and out == ""
    assert "violates the bound at (1, 1)" in json.loads(err)["error"]


def test_writer_refuses_keys_outside_json():
    with pytest.raises(TypeError, match="keys must be str or int"):
        cli_mod._dump({(1, 2): 1})


def test_batch_exits_3_when_an_entry_breaches(monkeypatch):
    original = cli_mod.min_volume_candidate
    monkeypatch.setattr(cli_mod, "min_volume_candidate", lambda n: original(n) * 2)
    result, code = run_batch([
        {"id": "a", "command": "minvol", "args": {"n": 1, "verify": True}},
        {"id": "b", "command": "minvol", "args": {"n": 0}},
    ])
    assert code == 3
    assert result["first_error"] == "a"
    assert [result["results"][i]["exit_code"] for i in "ab"] == [3, 2]


# every integer vector an input carries, as a function of one of its entries
_N2 = '{"n":2,"coeffs":["1/2","2/3"]}'
_MODEL = '{"n":2,"coeffs":["1/2","1"]}'
_VECTOR_ENTRIES = {
    "ldisc --v": ("v", lambda e: ["ldisc", "--pair", _N2, "--v", json.dumps([e, 2])]),
    "lcoeff --v": ("v", lambda e: ["lcoeff", "--pair", _N2, "--v", json.dumps([e, 2])]),
    "weight B v": ("v", lambda e: ["weight", "--model", _MODEL, "--B", json.dumps(
        {"deviations": [{"v": [e, 2], "value": "0"}]})]),
    "reduce B v": ("v", lambda e: ["reduce", "--model", _MODEL, "--B", json.dumps(
        {"deviations": [{"v": [e, 2], "value": "0"}]})]),
    "ltrace fan rays": ("rays", lambda e: ["ltrace", "--pair", _N2, "--fan", json.dumps(
        {"n": 2, "rays": [[e, 0], [0, 1], [1, 1]], "cones": [[0, 2], [1, 2]]})]),
    "ltrace fan cones": ("cones", lambda e: ["ltrace", "--pair", _N2, "--fan", json.dumps(
        {"n": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2], [e, 2]]})]),
    "weight --stratum": ("stratum", lambda e: ["weight", "--model", _MODEL, "--B",
                                               '{"deviations":[{"v":[1,2],"value":"0"}]}',
                                               "--stratum", json.dumps([e, 2])]),
    "polyvol normals": ("normals", lambda e: ["polyvol", "--polytope", json.dumps(
        {"n": 2, "normals": [[e, 0], [0, 1], [-1, -1]], "offsets": ["0", "0", "1"]})]),
}


@pytest.mark.parametrize("name", sorted(_VECTOR_ENTRIES))
def test_every_vector_reads_its_entries_as_every_integer_is_read(name):
    # an int or its decimal text, and nothing else: a float or a bool exits 2
    # naming the key
    key, argv = _VECTOR_ENTRIES[name]
    code, out, err = run_cli(argv(1))
    assert code == 0, err
    assert run_cli(argv("1")) == (0, out, "")
    for bad in 1.0, True:
        code, _, err = run_cli(argv(bad))
        assert code == 2
        assert json.loads(err) == {
            "error": f"argument {key!r} must be an integer, got {bad!r}", "exit_code": 2}
