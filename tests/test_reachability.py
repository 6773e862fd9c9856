"""Every statement of the package runs for some command line.

The golden command lines and malformed inputs of ``test_cli`` and the
command lines of ``EXTRA`` run in process under one ``sys.settrace`` pass,
which records the line events of the package's functions.  A module-level function or a method of a module-level class that
none of them enters, and a statement in a function body that none of them
runs, must be on ``ALLOWED`` with its reason; anything else is code that no
command needs.
"""

import ast
import contextlib
import functools
import inspect
import io
import json
import os
import sys
from pathlib import Path

import bdivkit.cli as cli_mod
import bdivkit.fans as fans_mod
from test_cli import BAD_INPUTS, CASES, GOLDEN

SRC = Path(cli_mod.__file__).resolve().parent

# command lines for paths that neither the goldens nor the bad inputs take
EXTRA = [
    ["-h"],
    ["batch", "--file", str(GOLDEN / "batch_input.json")],
    # a klt cut at valuations B does not list, whose fan keeps the ray
    # (1, 0, 0) of coefficient 0, where the pullback gap is 0
    ["reduce", "--model", '{"n":3,"coeffs":["0","2/3","2/3"]}', "--B",
     '{"deviations":[{"v":[0,1,1],"value":"0"}]}'],
    ["dcc", "--set", json.dumps({"kind": "union", "members": [
        {"kind": "finite", "values": ["1/2", "2/3"]},
        {"kind": "closure", "base": {"kind": "finite", "values": ["6/7"]}, "denom_bound": 7},
    ]}), "--verify"],
    ["chain", "--set", '{"kind":"standard"}', "--length", "1", "--denom-bound", "12"],
    # the command line: help for a command, an option shortened, --out, --file
    ["minvol", "-h"],
    ["minvol", "--ver", "--n", "1"],
    ["minvol", "--n", "1", "--out", os.devnull],
    ["minvol", "--file", str(GOLDEN / "minvol.out")],
    # integer ids, error records, null and empty results
    ["batch", "--file", str(GOLDEN / "batch_int_ids.json")],
    ["batch", "--file", str(GOLDEN / "batch_empty.json")],
    ["closure", "--base", "[]", "--denom-bound", "3"],
    ["closure", "--base", '["1/2","1"]', "--denom-bound", "4"],
    ["round-check", "--coeffs", "[0]", "--m", "2"],
    # oracles on their other branches, and oracles that are skipped
    ["fset", "--model", '{"n":2,"coeffs":["1","1"]}', "--verify"],
    ["lcoeff", "--pair", '{"n":3,"coeffs":["1/2","1/2","1/2"]}', "--v", "[1,1,1]", "--verify"],
    ["lcoeff", "--pair", '{"n":2,"coeffs":["1/2","2/3"]}', "--v", "[1,2]", "--verify"],
    # a valuation's entries as decimal text, read as every integer is
    ["ldisc", "--pair", '{"n":2,"coeffs":["1/2","2/3"]}', "--v", '["1","2"]', "--verify"],
    ["ltrace", "--pair", '{"n":3,"coeffs":["3/4","5/6","1/2"]}', "--fan",
     '{"n":3,"rays":[[1,0,0],[0,1,0],[0,0,1],[1,1,1]],"cones":[[0,1,3],[0,2,3],[1,2,3]]}',
     "--verify"],
    ["mld", "--pair", '{"n":3,"coeffs":["0","249/250","249/250"]}', "--verify"],
    ["fset", "--model", json.dumps({"n": 6, "coeffs": ["4/5"] * 6}), "--verify"],
    ["pnvol", "--n", "1", "--coeffs", '["1/2","1/2","1/2"]', "--verify"],
    ["unitary", "--n", "1", "--verify"],
    # a stratum, on a model whose coefficient one comes first
    ["weight", "--model", '{"n":2,"coeffs":["1","1/2"]}', "--B",
     '{"deviations":[{"v":[2,1],"value":"0"}]}', "--stratum", "[1,2]", "--verify"],
    # polytopes: a 4-cube cut by two constraints that touch it along a square
    # face and at a vertex, a segment and a flat square
    ["polyvol", "--polytope", json.dumps({
        "n": 4,
        "normals": [[int(j == i) * s for j in range(4)] for i in range(4) for s in (1, -1)]
                   + [[-1, -1, 0, 0], [-1, -1, -1, -1]],
        "offsets": ["0", "1"] * 4 + ["2", "4"]})],
    ["polyvol", "--polytope",
     '{"n":2,"normals":[[1,0],[-1,0],[0,1],[0,-1]],"offsets":["0","0","0","1"]}', "--verify"],
    ["polyvol", "--polytope", '{"n":3,"normals":[[0,0,1],[0,0,-1],[1,0,0],[-1,0,0],[0,1,0],'
                              '[0,-1,0]],"offsets":["0","0","0","1","0","1"]}'],
    # reductions: a klt model (with --verify, which has no oracle to run), a
    # cut that needs resolution, and a state the verifier refutes
    ["reduce", "--model", '{"n":2,"coeffs":["1/2","2/3"]}', "--B",
     '{"deviations":[{"v":[1,1],"value":"0"}]}', "--verify"],
    ["reduce", "--model", '{"n":2,"coeffs":["3/4","1"]}', "--B",
     '{"deviations":[{"v":[1,1],"value":"4/7"},{"v":[3,5],"value":"1/7"}]}'],
    ["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]},
        "phi": ["1/2", "2/3"],
        "B": {"pair": ["1/2", "2/3"], "deviations": [{"v": [1, 1], "value": "0"}]}})],
    # the same state with its rays in the other order, so its cone has det -1
    ["verify", "--state", json.dumps({
        "fan": {"n": 2, "rays": [[0, 1], [1, 0]], "cones": [[0, 1]]},
        "phi": ["2/3", "1/2"],
        "B": {"pair": ["1/2", "2/3"], "deviations": [{"v": [1, 1], "value": "0"}]}})],
    # coefficient sets: verdicts of unions and closures, chains in finite
    # sets, unions and closures
    ["dcc", "--set", json.dumps({"kind": "union", "members": [
        {"kind": "standard"},
        {"kind": "closure", "base": {"kind": "standard"}, "denom_bound": 12}]}), "--verify"],
    ["dcc", "--set", '{"kind":"union","members":[{"kind":"finite","values":["1/2"]},'
                     '{"kind":"standard"}]}'],
    ["dcc", "--set", '{"kind":"closure","base":{"kind":"finite","values":["1/2","1"]},'
                     '"denom_bound":2}'],
    # closures whose bases hold the standard set at their bound list the Farey
    # fractions, 1 first when the base lists it, and decide membership by rule
    ["chain", "--set", json.dumps({"kind": "closure", "denom_bound": 12, "base": {
        "kind": "union", "members": [{"kind": "standard"}, {"kind": "finite", "values": ["1"]},
                                     {"kind": "closure", "denom_bound": 5,
                                      "base": {"kind": "finite", "values": ["1/2"]}}]}}),
     "--length", "3", "--verify"],
    # a closure over one whose bound reaches its own reads the inner stream
    ["chain", "--set", json.dumps({"kind": "closure", "denom_bound": 12, "base": {
        "kind": "closure", "denom_bound": 30, "base": {
            "kind": "finite", "values": ["1/2", "2/3", "6/7"]}}}),
     "--length", "2", "--verify"],
    # and a closure over one cut at a smaller bound walks over its Farey fractions
    ["chain", "--set", json.dumps({"kind": "closure", "denom_bound": 12, "base": {
        "kind": "closure", "denom_bound": 6, "base": {"kind": "standard"}}}),
     "--length", "2", "--denom-bound", "30", "--verify"],
    ["chain", "--set", json.dumps({"kind": "union", "members": [
        {"kind": "finite", "values": ["1/2"]}, {"kind": "standard"},
        {"kind": "finite", "values": ["1/2", "1/3"]}]}), "--length", "2", "--verify"],
    ["chain", "--set", '{"kind":"union","members":[{"kind":"finite","values":["1/2"]}]}',
     "--length", "2"],
    ["chain", "--set", '{"kind":"closure","base":{"kind":"finite","values":["0"]},'
                       '"denom_bound":5}', "--length", "2"],
    ["chain", "--set", '{"kind":"closure","base":{"kind":"finite","values":["1/5","3/5"]},'
                       '"denom_bound":5}', "--length", "2"],
]

REASONS = (
    "runs at import",
    "pinned by the tracer",
    "needed by an acceptance test",
    "reached only on a breach",
    "a guard only library callers reach",
)

BREACH = "reached only on a breach: "
LIBRARY = "a guard only library callers reach: "

# (module:qualname, stripped first line of a statement) -> why it stays although
# no command line runs it; the statement None stands for a function no command
# line enters.  Each breach has a test that plants the fault and reaches it.
ALLOWED = {
    ("exact:record", None): "runs at import: it builds the record classes",
    ("fans:Cone.barycentric", None):
        "pinned by the tracer: bench/tracing.py wraps it by name in METHODS",
    # --verify oracles that disagree with the fast path, and invariants
    ("cli:_mismatch", None): BREACH + "a --verify oracle disagrees",
    ("cli:_ensure_match", "_mismatch(what, fast, oracle)"): BREACH + "a --verify oracle disagrees",
    ("cli:_cmd_chain", '_mismatch("chain membership",'): BREACH + "a chain outside its set",
    ("cli:_cmd_closure", '_mismatch("closure closedness", values, Fraction(e, big_l))'):
        BREACH + "a closure missing a generated member",
    ("cli:_cmd_closure", '_mismatch("closure base membership", values, v)'):
        BREACH + "a closure missing a base value",
    ("cli:_cmd_constants", '_mismatch("constants M_min (an int)", repr(fast), m_min)'):
        BREACH + "a wrong M_min",
    ("cli:_write", 'raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")'):
        BREACH + "a result holding a value outside JSON",
    ("cli:_label", 'raise TypeError(f"keys must be str or int, not {type(key).__name__}")'):
        BREACH + "a result with a key outside JSON",
    ("fans:Fan.locate", "raise InvariantViolation("): BREACH + "a fan that misses a vector",
    ("fans:insert_rays", "raise InvariantViolation("):
        BREACH + "a piece of a subdivision that loses a pending vector",
    ("fans:_new_pivot",
     'raise InvariantViolation(f"resolution pivot {pivot} is already a ray of the fan")'):
        BREACH + "a parallelepiped point that is a ray of another cone",
    ("reduction:_cut_state", 'raise InvariantViolation("cut produced an inconsistent trace")'):
        BREACH + "a cut trace that leaves B at a ray",
    ("reduction:run_reduction",
     'raise InvariantViolation("witnesses present but no cut valuation found")'):
        BREACH + "witnesses with no cut valuation",
    ("reduction:run_reduction", "raise InvariantViolation("):
        BREACH + "the verifier refutes a reduction",
    ("cli:_error_record", 'return {"error": str(exc), "exit_code": 3}'):
        BREACH + "an invariant breach outside a batch",
    ("reduction:verify_reduction",
     'raise InvariantViolation(f"the fan does not subdivide the orthant: {defect}")'):
        BREACH + "a cut fan that is no subdivision",
    # checks of values that every command validates before, or builds valid
    ("dcc:Chain.__post_init__", 'raise PreconditionError("chain is not strictly decreasing")'):
        LIBRARY + "every search builds its chain decreasing",
    ("dcc:_descending", 'raise PreconditionError(f"unknown set description: {desc!r}")'):
        LIBRARY + "desc_from_json builds only the four kinds",
    ("dcc:standard_coeff", 'raise PreconditionError("standard coefficients need r >= 1")'):
        LIBRARY + "chain checks its denominator bound first",
    ("cli:_like", "return None"):
        LIBRARY + "every list a command prints has like rows; "
        "test_writer_equals_json_dumps writes unlike ones",
}


def _argvs():
    for argv in [*CASES.values(), *BAD_INPUTS, *EXTRA]:
        yield argv if isinstance(argv, list) else argv.values[0]


def _statement_lines(tree):
    """line -> first line of the innermost statement that holds it."""
    owner = {}
    for node in ast.walk(tree):  # outer statements come before inner ones
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            inner = [n for field in ("body", "orelse", "finalbody", "handlers")
                     for n in getattr(node, field, ()) if isinstance(n, ast.AST)]
            last = min((n.lineno for n in inner), default=node.end_lineno + 1) - 1
            for line in range(node.lineno, max(last, node.lineno) + 1):
                owner[line] = node.lineno
    return owner


def _defined():
    """code key -> (module:qualname, {(statement's first line, its stripped
    text): the statement's code lines}) for every function the package defines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        owner = _statement_lines(ast.parse(text))
        todo = [compile(text, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
            if code.co_flags & inspect.CO_OPTIMIZED and "<" not in code.co_qualname:
                statements = {}
                for _, _, line in code.co_lines():
                    if line is not None and line != code.co_firstlineno:
                        first = owner[line]
                        statements.setdefault((first, source[first - 1].strip()), set()).add(line)
                key = (path.name, code.co_qualname, code.co_firstlineno)
                out[key] = (f"{path.stem}:{code.co_qualname}", statements)
    return out


@functools.cache
def _in_package(filename):
    """Whether a code object's file is a module of the package, also when the
    package's directory is reached through a symbolic link."""
    return Path(filename).resolve().parent == SRC


@functools.cache
def _missed():
    """The ALLOWED-style keys of every function not entered and every
    statement not run by the command lines, in one tracing pass."""
    ran = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if not _in_package(code.co_filename):
            return None
        key = (Path(code.co_filename).name, code.co_qualname, code.co_firstlineno)
        lines = ran.setdefault(key, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    # the orthant is built once per dimension and process; start cold, as a
    # command-line process does, whatever other tests built before
    fans_mod.orthant_fan.cache_clear()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.settrace(trace)
        try:
            for argv in _argvs():
                with contextlib.suppress(SystemExit):  # argv errors exit 2
                    cli_mod.main(argv)
        finally:
            sys.settrace(None)

    missed = set()
    for key, (name, statements) in _defined().items():
        if key not in ran:
            missed.add((name, None))
            continue
        missed.update((name, text) for (_, text), lines in statements.items()
                      if not lines & ran[key])
    return missed


def test_every_function_is_entered_by_a_command_or_allowed():
    missed = {key for key in _missed() if key[1] is None}
    allowed = {key for key in ALLOWED if key[1] is None}
    assert sorted(missed - allowed) == []
    assert sorted(allowed - missed) == []  # still there and still not entered


def test_every_statement_runs_for_a_command_or_is_allowed():
    missed = _missed()
    assert sorted(missed - ALLOWED.keys(), key=str) == []
    # the list stays exact: each entry names a statement that is still there
    # and still does not run, with a reason of one of the kinds above
    assert sorted(ALLOWED.keys() - missed, key=str) == []
    assert all(reason.startswith(REASONS) for reason in ALLOWED.values())
