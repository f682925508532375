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
        "  differs: certify seed 1 call 1 (sos stable)",
        "  differs: recover seed 2 call 0 (sos stable)"]


def test_call_on_one_side_only(tmp_path):
    extra = _call("near_torus", 3, 0)
    lines = _diff(tmp_path, CALLS, CALLS + [extra])
    assert lines[0] == "1 of 5 calls differ"
    assert "near_torus: 1 of 1 calls differ" in lines
    assert lines[-1] == "  differs: near_torus seed 3 call 0 (sos stable)"
    # and the other way round: a call only the base made
    assert _diff(tmp_path, CALLS + [extra], CALLS) == lines
