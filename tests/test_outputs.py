"""The surface census of ``tools/outputs.py``: every input reduces, and
the final state it prints passes the verifier again after a round trip."""

import importlib.util
import json
from pathlib import Path

import bdivkit.fans as fans_mod
from bdivkit.reduction import ReductionState, verify_reduction

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_surface_census_reduces_and_verifies_every_input(monkeypatch):
    pivots = []
    real = fans_mod._new_pivot
    monkeypatch.setattr(fans_mod, "_new_pivot",
                        lambda known, p: pivots.append(p) or real(known, p))
    argvs = outputs.surface_census()
    assert len(argvs) == 273
    resolving = 0
    for argv in argvs:
        before = len(pivots)
        code, out, err = outputs.run(argv)
        assert code == 0, (argv, err)
        data = json.loads(out)
        assert data["verify_ok"] is True
        state = ReductionState.from_json(data["final"])
        assert verify_reduction(state, data["verified_box"]).ok, argv
        resolving += len(pivots) > before
    # the census takes the resolution path: 49 cuts resolve, in 251 pivots
    assert (resolving, len(pivots)) == (49, 251)
