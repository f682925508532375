"""tools/corpus_outputs.py --diff on small hand-written record files."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus_outputs.py"
_spec = importlib.util.spec_from_file_location("corpus_outputs", TOOL)
corpus_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_outputs)


def _call(workload, seed, index, exit=0, stdout='{"ok": true}\n'):
    return {"workload": workload, "seed": seed, "index": index,
            "pipeline": "sos", "kind": "stable", "exit": exit,
            "stdout": stdout}


CALLS = [_call("certify", 1, 0), _call("certify", 1, 1),
         _call("recover", 1, 0), _call("recover", 2, 0)]


def _diff(tmp_path, base, head):
    for name, calls in (("base.json", base), ("head.json", head)):
        (tmp_path / name).write_text(json.dumps({"tree": ".", "calls": calls}))
    return corpus_outputs.diff(tmp_path / "base.json", tmp_path / "head.json")


def test_identical_records(tmp_path):
    assert _diff(tmp_path, CALLS, CALLS) == [
        "0 of 4 calls differ", "certify: 0 of 2 calls differ",
        "recover: 0 of 2 calls differ"]


def test_changed_stdout_and_exit_code(tmp_path):
    head = [dict(c) for c in CALLS]
    head[1]["stdout"] = '{"ok": false}\n'
    head[3]["exit"] = 3
    assert _diff(tmp_path, CALLS, head) == [
        "2 of 4 calls differ", "certify: 1 of 2 calls differ",
        "recover: 1 of 2 calls differ",
        "  differs: certify seed 1 call 1 (sos stable): exit equal, shape differs",
        "  differs: recover seed 2 call 0 (sos stable): exit 0 -> 3, shape equal, "
        "no number moved",
        "worst 2 calls:",
        "  certify seed 1 call 1 (sos stable): shape differs",
        "  recover seed 2 call 0 (sos stable): no number moved"]


def test_call_on_one_side_only(tmp_path):
    extra = _call("near_torus", 3, 0)
    lines = _diff(tmp_path, CALLS, CALLS + [extra])
    assert lines[0] == "1 of 5 calls differ"
    assert "near_torus: 1 of 1 calls differ" in lines
    assert "  differs: near_torus seed 3 call 0 (sos stable): only in head" in lines
    assert lines[-1] == "  near_torus seed 3 call 0 (sos stable): only in head"
    # and the other way round: a call only the base made
    assert _diff(tmp_path, CALLS + [extra], CALLS) == [
        line.replace("only in head", "only in base") for line in lines]


def _doc(**fields):
    return json.dumps({"deg": [1, 2], "c": [[1.0, -2.0], [4.0, 0.5]],
                       "residual": 1e-16, **fields}, indent=2) + "\n"


def test_round_off_moves_by_field(tmp_path):
    # a table entry moves by 1e-12 of the table's largest magnitude, and a
    # residual by twice itself; numbers inside a string are a field too
    base = [_call("certify", 1, 0, stdout=_doc()),
            _call("certify", 1, 1, stdout=_doc(message="last change 7.0e-10")),
            _call("recover", 1, 0, stdout=_doc())]
    head = [_call("certify", 1, 0, stdout=_doc(c=[[1.0, -2.0], [4.000000000004, 0.5]])),
            _call("certify", 1, 1, stdout=_doc(message="last change 7.7e-10",
                                               residual=3e-16)),
            _call("recover", 1, 0, stdout=_doc())]
    assert _diff(tmp_path, base, head) == [
        "2 of 3 calls differ", "certify: 2 of 2 calls differ",
        "recover: 0 of 1 calls differ",
        "  differs: certify seed 1 call 0 (sos stable): exit equal, shape equal, "
        "largest change 1.0e-12 of its scale in sos c",
        "  differs: certify seed 1 call 1 (sos stable): exit equal, shape equal, "
        "largest change 2.0e+00 of its scale in sos residual",
        "worst 2 calls:",
        "  certify seed 1 call 1 (sos stable): largest change 2.0e+00 of its "
        "scale in sos residual",
        "  certify seed 1 call 0 (sos stable): largest change 1.0e-12 of its "
        "scale in sos c",
        "fields that moved, by largest change of their scale:",
        "  2.0e+00 sos residual (1 calls)",
        "  1.0e-01 sos message (1 calls)",
        "  1.0e-12 sos c (1 calls)"]


def test_shape_changes(tmp_path):
    # each head differs from the base in one way: a new degree, a longer
    # list, another key, other text, a number that became null or a
    # string, or stdout that is not JSON
    words = "some words"
    heads = [_doc(deg=[1, 1], message=words),
             _doc(c=[[1.0, -2.0, 0.0], [4.0, 0.5, 0.0]], message=words),
             _doc(extra=1.0, message=words), _doc(message="other words"),
             _doc(residual=None, message=words),
             _doc(residual="1e-16", message=words), "Traceback\n"]
    base = [_call("certify", 1, i, stdout=_doc(message=words))
            for i in range(len(heads))]
    head = [_call("certify", 1, i, stdout=text) for i, text in enumerate(heads)]
    lines = _diff(tmp_path, base, head)
    assert lines[0] == f"{len(heads)} of {len(heads)} calls differ"
    details = [line for line in lines if line.startswith("  differs:")]
    assert len(details) == len(heads)
    assert all(line.endswith("exit equal, shape differs") for line in details)
    assert "fields that moved, by largest change of their scale:" not in lines


def test_worst_calls_are_capped_and_ordered(tmp_path):
    moves = [1e-15, 1e-9, 1e-13, 1e-3, 1e-11, 1e-7, 1e-5]
    base = [_call("recover", 1, i, stdout=_doc()) for i in range(len(moves))]
    head = [_call("recover", 1, i, stdout=_doc(c=[[1.0, -2.0], [4.0 * (1 + move), 0.5]]))
            for i, move in enumerate(moves)]
    lines = _diff(tmp_path, base, head)
    worst = lines[lines.index("worst 5 calls:") + 1:][:5]
    assert [int(line.split(" call ")[1].split()[0]) for line in worst] == [3, 6, 5, 1, 4]
    assert lines[-1] == "  1.0e-03 sos c (7 calls)"
