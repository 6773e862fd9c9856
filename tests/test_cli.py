import argparse
import io
import json
import contextlib
import dataclasses
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import bdivkit.cli as cli_mod
from bdivkit.cli import main, run_batch, run_command

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
               '{"deviations":[{"v":[1,2],"value":"0"}]}', "--box", "8"],
    "verify": ["verify", "--state",
               '{"fan":{"n":2,"rays":[[1,0],[0,1]],"cones":[[0,1]]},'
               '"phi":["1/2","2/3"],"B":{"pair":["1/2","2/3"],"deviations":[]}}',
               "--box", "6"],
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
    "fermat-scan": ["fermat", "--scan", "--m-rule", "n+3", "--n-max", "6"],
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
    code, out, _ = run_cli(["fermat", "--scan", "--m-rule", "n+3", "--n-max", "10"])
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
    code, out, _ = run_cli(["verify", "--state", json.dumps(state), "--box", "5"])
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
    code, out, _ = run_cli(["reduce", "--file", str(payload), "--box", "6"])
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
    code2, out2, _ = run_cli(["verify", "--state", json.dumps(final), "--box", "12"])
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
    pytest.param(CASES["reduce"][:-1] + ["0"], id="reduce box 0"),
    pytest.param(CASES["verify"][:-1] + ["0"], id="verify box 0"),
    pytest.param(["fermat", "--scan", "--n-max", "0"], id="fermat scan n_max 0"),
    pytest.param(["dcc", "--set", '{"kind":"standard"}', "--rounds", "-1", "--max-size", "-5"],
                 id="dcc negative rounds and max_size"),
    pytest.param(["dcc", "--set", '{"kind":"standard"}', "--threshold", "0"],
                 id="dcc threshold 0"),
    pytest.param(CASES["chain"][:-2] + ["0"], id="chain denom_bound 0"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a[:2]))
def test_malformed_inputs_exit_2_with_json_error(argv):
    code, out, err = run_cli(argv)
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
    (CASES["reduce"][:-1] + ["0"], "box must be >= 1"),
    (CASES["verify"][:-1] + ["0"], "box must be >= 1"),
    (["fermat", "--scan", "--n-max", "0"], "need n_max >= 1"),
    (["dcc", "--set", '{"kind":"standard"}', "--rounds", "-1", "--max-size", "-5"],
     "rounds must be >= 1, got -1"),
    (["dcc", "--set", '{"kind":"standard"}', "--max-size", "-5"], "max_size must be >= 1"),
    (["dcc", "--set", '{"kind":"standard"}', "--threshold", "0"], "threshold must be >= 1"),
    (CASES["chain"][:-2] + ["0"], "denom_bound must be >= 1"),
])
def test_errors_name_their_cause(argv, cause):
    code, _, err = run_cli(argv)
    assert code == 2
    assert cause in json.loads(err)["error"]


def test_constants_refuses_a_huge_power_at_once():
    # (C n)^n has about n^2 log10(4n/eps) digits; it is refused from bit
    # lengths before any power that size is taken
    start = time.perf_counter()
    code, out, err = run_cli(["constants", "--n", "2000", "--eps", "1", "--gamma0", "1",
                              "--delta", "1/2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert _DIGIT_LIMIT in json.loads(err)["error"]


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
    from bdivkit.bounds import effective_constants

    def patched(*args):
        report = effective_constants(*args)
        values = dict(report.values, M_min=m_min_of(report.values["M_min"]))
        return dataclasses.replace(report, values=values)

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
                         "B": {"pair": ["1/2", "2/3"], "deviations": []}},
               "box": 4},
    "polyvol": {"polytope": {"n": 2, "normals": [[1, 0], [0, 1], [-1, -1]],
                             "offsets": ["0", "0", "1"]}},
    "ldisc": {"pair": _PAIR, "v": [1, 2]},
    "dcc": {"set": {"kind": "closure", "denom_bound": 12,
                    "base": {"kind": "finite", "values": ["1/2", "2/3"]}},
            "denom_bound": 30, "max_size": 200, "rounds": 2, "threshold": 3},
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
               "B": {"deviations": [{"v": [1, 2], "value": "0"}]}, "box": 4, "verify": True},
    "lcoeff": {"pair": _PAIR, "v": [2, 1], "verify": True},
    "mld": {"pair": _PAIR, "verify": True},
    "fset": {"model": _PAIR, "verify": True},
    "round-check": {"coeffs": ["1/2", "2/5"], "m": 2, "verify": True},
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


@settings(max_examples=740, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_arguments_exit_0_or_2(data):
    command = data.draw(st.sampled_from(sorted(_TEMPLATES)))
    args = _TEMPLATES[command]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(args))[1:]))
        args = _replace(args, path, data.draw(_SMALL_JSON))
    code, out, err = run_cli([command, "--json", json.dumps(args)])
    assert code in (0, 2), (command, args, err)
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        record = json.loads(err)
        assert isinstance(record, dict) and record["exit_code"] == 2


# ---------------------------------------------------------------------------
# the parser of one command against the parser of them all


def _command_parser(parser, name):
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _registered(parser):
    return [(a.option_strings, a.dest, a.type, a.default, a.help) for a in parser._actions]


@pytest.mark.parametrize("name", sorted(cli_mod._COMMANDS))
def test_command_parser_registers_what_the_full_parser_does(name):
    alone = _command_parser(cli_mod.build_parser(name), name)
    full = _command_parser(cli_mod.build_parser(), name)
    assert list(alone) == [name]
    assert _registered(alone[name]) == _registered(full[name])
    assert alone[name].format_help() == full[name].format_help()


def _run_catching_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help, unknown or missing command
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_ARGVS = [CASES[name] for name in sorted(CASES)] + [
    p.values[0] if hasattr(p, "values") else p for p in BAD_INPUTS
] + [["-h"], ["minvol", "-h"], ["frobnicate"], [], ["minvol", "--n", "x"],
     ["minvol", "--bogus", "1"], ["--verify", "minvol"]]


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda a: " ".join(a[:2]) or "no command")
def test_command_parser_answers_as_the_full_parser(monkeypatch, argv):
    alone = _run_catching_exit(argv)
    full_parser = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda command=None: full_parser())
    assert _run_catching_exit(argv) == alone
