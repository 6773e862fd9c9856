"""Every function and method of the package is entered by some command line.

The golden command lines and malformed inputs of ``test_cli``, ``-h``, the
golden batch and a few command lines picked for paths those miss run in
process under ``sys.setprofile``.  A module-level function or a method of a
module-level class that none of them enters must be on ``ALLOWED`` with its
reason; anything else is code that no command needs.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import bdivkit.cli as cli_mod
from test_cli import BAD_INPUTS, CASES, GOLDEN

SRC = Path(cli_mod.__file__).resolve().parent

# a few command lines for paths that neither the goldens nor the bad inputs take
EXTRA = [
    ["-h"],
    ["batch", "--file", str(GOLDEN / "batch_input.json")],
    # a witness straddles two pieces of an extraction, so the cut is split
    ["reduce", "--model", '{"n":3,"coeffs":["1/2","2/3","1"]}', "--B",
     '{"deviations":[{"v":[1,1,3],"value":"0"},{"v":[1,1,0],"value":"0"}]}'],
    ["dcc", "--set", json.dumps({"kind": "union", "members": [
        {"kind": "finite", "values": ["1/2", "2/3"]},
        {"kind": "closure", "base": {"kind": "finite", "values": ["6/7"]}, "denom_bound": 7},
    ]}), "--verify"],
    ["chain", "--set", '{"kind":"standard"}', "--length", "1", "--denom-bound", "12"],
]

REASONS = (
    "runs at import",
    "pinned by the tracer",
    "needed by an acceptance test",
    "test oracle",
    "reached only on a mismatch",
)

# module:qualname -> why it stays although no command line enters it
ALLOWED = {
    "exact:record": "runs at import: it builds the record classes",
    "fans:Cone.barycentric":
        "pinned by the tracer: bench/tracing.py wraps it by name in METHODS",
    "logpairs:mld_origin":
        "needed by an acceptance test: tests/test_acceptance.py calls it",
    "fans:hirzebruch_jung_rays": "test oracle: the resolve tests check against it",
    "fans:is_smooth": "test oracle: the resolve tests check their fans with it",
    "dcc:FiniteSet.to_json": "test oracle: the round trip of desc_from_json",
    "dcc:StandardSet.to_json": "test oracle: the round trip of desc_from_json",
    "dcc:UnionSet.to_json": "test oracle: the round trip of desc_from_json",
    "dcc:SumClosure.to_json": "test oracle: the round trip of desc_from_json",
    "cli:_mismatch": "reached only on a mismatch of a --verify oracle",
}


def _argvs():
    for argv in [*CASES.values(), *BAD_INPUTS, *EXTRA]:
        yield argv if isinstance(argv, list) else argv.values[0]


def _defined():
    """module:qualname -> code key of every function the package defines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            for const in code.co_consts:
                if isinstance(const, type(code)):
                    todo.append(const)
            if code.co_flags & inspect.CO_OPTIMIZED and "<" not in code.co_qualname:
                out[f"{path.stem}:{code.co_qualname}"] = (
                    path.name, code.co_qualname, code.co_firstlineno)
    return out


def _entered():
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in _argvs():
                with contextlib.suppress(SystemExit):  # argv errors exit 2
                    cli_mod.main(argv)
        finally:
            sys.setprofile(None)
    return {
        (Path(code.co_filename).name, code.co_qualname, code.co_firstlineno)
        for code in seen
        if Path(code.co_filename).resolve().parent == SRC
    }


def test_every_function_is_entered_by_a_command_or_allowed():
    defined = _defined()
    entered = _entered()
    missed = sorted(name for name, key in defined.items() if key not in entered)
    assert [name for name in missed if name not in ALLOWED] == []
    # the list stays exact: each entry names a function that is still there,
    # still not entered, and a reason of one of the kinds above
    assert sorted(ALLOWED) == [name for name in missed if name in ALLOWED]
    assert all(reason.startswith(REASONS) for reason in ALLOWED.values())
