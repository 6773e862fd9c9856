"""The inputs of ``tools/outputs.py``: the first rounds of both benchmark
workloads and the weights and sets censuses print what they printed when
the digests below were pinned, and write each result as ``json.dumps``
would; every ``dcc`` verdict of the sets census is the one facts 2-4 of
``bdivkit.dcc`` give; every input of the surface and threefold censuses, and a slice of
the wide census, reduces in at most one cut, and every final state that is
printed passes the verifier again after a round trip; the surface and
threefold censuses and the wide slice print what they printed when their
digests were pinned."""

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import bdivkit.cli as cli_mod
import bdivkit.fans as fans_mod
from bdivkit.reduction import ReductionState, verify_reduction

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


# the digest of every argv, exit code, stdout and stderr of the first three
# rounds of both workloads at seed 1; a change that means to alter an output
# pins the new digest and says so
FIRST_ROUNDS = ["reduce_cut:1:3", "batch_small:1:3"]
FIRST_ROUNDS_SHA256 = "766e7479a8a326b7aaae0e056256073b996623d0fbfc3ca5ad11701f21be6af1"


def test_first_rounds_print_the_pinned_outputs():
    digest, codes, _ = outputs.digest_outputs(FIRST_ROUNDS)
    assert {code: len(argvs) for code, argvs in codes.items()} == {0: 36, 2: 3}
    assert digest == FIRST_ROUNDS_SHA256


# the same for the weights census: ``weight --verify`` bare and on every
# stratum, so that the witness each one picks is pinned
WEIGHTS_SHA256 = "8d58642c37006151c62c1a9b0c75cce87ecccbf09dea45c741e7818e165610fa"


def test_weights_census_prints_the_pinned_outputs():
    digest, codes, _ = outputs.digest_outputs(["weights"])
    assert {code: len(argvs) for code, argvs in codes.items()} == {0: 3200}
    assert digest == WEIGHTS_SHA256


# the same for the sets census: chain, dcc and closure with --verify on every
# kind of set description; no input exits 3
SETS_SHA256 = "7a0d951180a798efae7ec9deb1b00a7ed115a8f8a57a5b446a86c4a1b20ecb02"


def test_sets_census_verifies_and_prints_the_pinned_outputs():
    digest, codes, _ = outputs.digest_outputs(["sets"])
    assert {code: len(argvs) for code, argvs in codes.items()} == {0: 532}
    assert digest == SETS_SHA256


def _holds_standard(desc: dict) -> bool:
    """Whether the whole set a description denotes holds the standard set."""
    kind = desc["kind"]
    if kind == "union":
        return any(map(_holds_standard, desc["members"]))
    return kind == "standard" or (kind == "closure" and _holds_standard(desc["base"]))


def _not_dcc(desc: dict) -> bool:
    """Facts 2-4: a closure is NOT_DCC exactly when its base holds the
    standard set (1/m is (m-1)/m summed with itself m-2 times), else its
    members lie in (1/L)Z in [0, 1]; a union is NOT_DCC exactly when a member
    is; finite sets and the standard set are DCC."""
    if desc["kind"] == "closure":
        return _holds_standard(desc["base"])
    return desc["kind"] == "union" and any(map(_not_dcc, desc["members"]))


def test_every_dcc_verdict_of_the_sets_census_follows_the_facts():
    argvs = [argv for argv in outputs.sets_census() if argv[0] == "dcc"]
    assert len(argvs) == 96
    verdicts = set()
    for argv in argvs:
        code, out, _ = outputs.run(argv)
        data = json.loads(out)
        length = int(argv[argv.index("--threshold") + 1])
        if _not_dcc(json.loads(argv[2])):
            assert data["verdict"] == "NOT_DCC" and data["verified"] is True, argv
            assert data["witness"] == {
                "elements": [f"1/{m}" for m in range(2, length + 2)], "limit": "0"}, argv
        else:
            assert data["verdict"] == "DCC" and "witness" not in data, argv
        verdicts.add(data["verdict"])
    assert verdicts == {"DCC", "NOT_DCC"}


def test_each_result_is_written_as_json_dumps_writes_it(monkeypatch):
    written = []
    real = cli_mod._dump

    def spy(value):
        written.append((value, real(value)))
        return written[-1][1]

    monkeypatch.setattr(cli_mod, "_dump", spy)
    outputs.digest_outputs(["reduce_cut:1:2", "batch_small:1:2"])
    assert len(written) == 26
    for value, text in written:
        assert text == json.dumps(value, sort_keys=True, indent=2) + "\n"


def _verifies_again(out: str) -> bool:
    """Whether a ``reduce`` output made at most one cut and its final state
    passes the verifier again after a round trip."""
    data = json.loads(out)
    state = ReductionState.from_json(data["final"])
    return len(data["steps"]) <= 1 and data["verify_ok"] is True and verify_reduction(state).ok


# the per-target digests of ``tools/outputs.py surface`` and ``threefold``,
# hashed in the loops below that run those censuses anyway
SURFACE_SHA256 = "c140b4df057a6cf6ac0fc47e28cf0e3bbecc38eb900698d67d78e53a1ecc6e3f"
THREEFOLD_SHA256 = "3fe6b953e27f152d6c21f183dec2578e01d2c2e3ace3baef78c2acde22c39ae2"


def test_surface_census_reduces_and_verifies_every_input(monkeypatch):
    pivots = []
    real = fans_mod._new_pivot
    monkeypatch.setattr(fans_mod, "_new_pivot",
                        lambda known, p: pivots.append(p) or real(known, p))
    argvs = outputs.surface_census()
    assert len(argvs) == 273
    resolving = 0
    digest = hashlib.sha256()
    for argv in argvs:
        before = len(pivots)
        code, out, err = outputs.run(argv)
        digest.update(outputs.output_record(argv, code, out, err))
        assert code == 0, (argv, err)
        assert _verifies_again(out), argv
        resolving += len(pivots) > before
    # the census takes the resolution path: 49 cuts resolve, in 251 pivots
    assert (resolving, len(pivots)) == (49, 251)
    assert digest.hexdigest() == SURFACE_SHA256


@functools.cache
def _threefold_run() -> tuple:
    """(exit code -> argv of the threefold census that exit with it, the
    census's digest); an exit 0 counts only if it made at most one cut and
    its printed final state verifies again."""
    argvs = outputs.threefold_census()
    assert len(argvs) == 3240
    codes = {}
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = outputs.run(argv)
        digest.update(outputs.output_record(argv, code, out, err))
        if code == 0 and not _verifies_again(out):
            code = "unverified"
        codes.setdefault(code, []).append(argv)
    return codes, digest.hexdigest()


def test_threefold_census_reduces_and_verifies_or_exits_3():
    # the cut extracts every witness, so every input reduces
    codes, _ = _threefold_run()
    assert {code: len(argvs) for code, argvs in codes.items()} == {0: 3240}, {
        code: argvs[:3] for code, argvs in codes.items()}


def test_threefold_census_exits_3_nowhere():
    assert 3 not in _threefold_run()[0]


def test_threefold_census_prints_the_pinned_outputs():
    assert _threefold_run()[1] == THREEFOLD_SHA256


# the digest of every third input of ``tools/outputs.py wide``, hashed as
# the per-target digests are
WIDE_SLICE_SHA256 = "16c34a94718dae61e95468735b178311477acffc97789e8ccde12c89c35f7f35"


def test_wide_census_slice_reduces_in_one_cut_and_verifies():
    # every third input of the wide census, in about two seconds
    argvs = outputs.wide_census()
    assert len(argvs) == 4000
    digest = hashlib.sha256()
    for argv in argvs[::3]:
        code, out, err = outputs.run(argv)
        digest.update(outputs.output_record(argv, code, out, err))
        assert code == 0, (argv, err)
        assert _verifies_again(out), argv
    assert digest.hexdigest() == WIDE_SLICE_SHA256
