"""Exit code and stdout of every benchmark corpus call, for one source tree.

    python tools/corpus_outputs.py [--scale S] TREE OUT.json
    python tools/corpus_outputs.py --diff BASE.json HEAD.json

The first form imports ``bszego`` from ``TREE/src`` and the corpus from
this checkout's ``bench/corpus.py`` (read only: no bytecode is written
there).  It builds the inputs of every workload at seeds 9137 and 311,
runs each call once in process on one BLAS thread, as ``bench/run.py``
does, and writes one record per call.  The input directory is replaced
by ``{inputs}`` in the recorded stdout.  With ``--scale S`` every
coefficient of every input file (each number of a polynomial's
``coeffs`` or a table's ``c``) is multiplied by S before the calls run.
A positive scale of p, or of a moment or trig table, leaves every exit
code and block count unchanged, so ``--diff`` of an unscaled record
against a scaled one of the same tree shows each call whose exit code or
shape a scale moves.

The second form prints how many calls differ between two such files in
exit code or stdout bytes, in all and per workload.  For each differing
call it says whether the exit code and the JSON shape are equal (keys,
list lengths, the values of ``deg``, and the text of strings with their
numbers taken out); where the shape differs, the first path at which it
does and the values there on both sides, such as ``sos B[2].deg [3, 8]
-> [2, 8]``; where it is equal, the largest change of a printed number
relative to the field's scale, followed by ``(old -> new)`` where that
field holds one number, such as a residual.  A field's scale is the
largest magnitude in it, in the base, but at least ROUND_OFF: a field that
is itself round-off, such as a residual of 1e-16, moves by a small
fraction of the floor, not by O(1) of itself.  A field is a pipeline and a
path of keys, with list indices dropped; numbers inside a string count in
the string's field.  Then come the worst calls by that
change, and every field that moved, with its largest change.  It only
reports and always exits 0: a change that only removes code expects 0
differences, while one that reorders arithmetic may move round-off.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
SEEDS = (9137, 311)
WORST = 5        # calls listed by their largest change
SHOWN = 40       # characters of a value shown where a shape differs
ROUND_OFF = 1e-12  # least scale of a field: changes below it are round-off
ABSENT = object()  # the value of a key on the other side only
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _scale_inputs(inputs, scale):
    """Multiply every coefficient of every input file in ``inputs`` by scale."""
    for name in os.listdir(inputs):
        path = os.path.join(inputs, name)
        with open(path) as fh:
            doc = json.load(fh)
        key = "coeffs" if "coeffs" in doc else "c"
        doc[key] = [[[x * scale for x in pair] for pair in row] for row in doc[key]]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def record(tree, out, scale=1.0):
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(os.path.abspath(tree), "src"), BENCH]
    import corpus
    import bszego.cli as cli
    from bszego.moments import moments_from_density
    from bszego.poly import BiPoly

    calls = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in corpus.WORKLOADS:
            for seed in SEEDS:
                problems = corpus.generate(workload, seed)
                inputs = os.path.join(workdir, f"{workload}-{seed}")
                argvs = corpus.materialize(problems, inputs,
                                           moments_from_density, BiPoly)
                if scale != 1.0:
                    _scale_inputs(inputs, scale)
                for idx, (prob, argv) in enumerate(zip(problems, argvs)):
                    buf = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(buf):
                            code = cli.main(argv)
                    except Exception as exc:   # recorded as a failed call
                        code = f"uncaught {type(exc).__name__}"
                    calls.append({"workload": workload, "seed": seed,
                                  "index": idx, "pipeline": prob.pipeline,
                                  "kind": prob.kind, "exit": code,
                                  "stdout": buf.getvalue().replace(inputs,
                                                                   "{inputs}")})
    with open(out, "w") as fh:
        json.dump({"tree": os.path.abspath(tree), "calls": calls}, fh, indent=1)


def _numbers(doc, pipeline):
    """(shape, fields) of a call's stdout.

    shape is the parsed document with each number replaced by ``float``
    and each number in a string by "#" (the values of ``deg`` stay), or the
    raw text if it is not JSON; fields maps "pipeline path" to the numbers
    printed in that field, in order.
    """
    fields = {}
    try:
        doc = json.loads(doc)
    except ValueError:
        return doc, {}
    return _walk(doc, "", pipeline, fields), fields


def _walk(node, path, pipeline, fields):
    """The shape of a parsed document (see ``_numbers``), adding its
    printed numbers to ``fields``."""
    if isinstance(node, dict):
        # a key such as "5,7" indexes data, like a list position
        return {key: value if key == "deg" else
                _walk(value, f"{path}.{key}" if key.isidentifier() else path,
                      pipeline, fields)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_walk(value, path, pipeline, fields) for value in node]
    name = f"{pipeline} {path[1:] or '.'}"
    if isinstance(node, str):
        fields.setdefault(name, []).extend(float(x) for x in NUMBER.findall(node))
        return NUMBER.sub("#", node)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        fields.setdefault(name, []).append(float(node))
        return float
    return node


def _shape_difference(old, new, path=""):
    """(path, old, new) at the first place where two parsed documents of
    different shapes differ.  The path keeps list indices and data keys,
    as in ``B[2].deg``.  A ``deg`` value differs as a whole and comes
    before its siblings, since it sums up the coefficient grid next to it;
    a key on one side only is ABSENT on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        inner = [(f"{path}.{key}" if key.isidentifier() else f"{path}[{key}]",
                  old.get(key, ABSENT), new.get(key, ABSENT), key == "deg")
                 for key in sorted(keys, key=lambda key: key != "deg")]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        inner = [(f"{path}[{i}]", a, b, False) for i, (a, b) in enumerate(zip(old, new))]
    else:
        inner = []
    for where, a, b, raw in inner:
        if raw and a != b:
            return where, a, b
        if not raw and _walk(a, "", "", {}) != _walk(b, "", "", {}):
            return _shape_difference(a, b, where)
    return path, old, new


def _parsed(text):
    """A call's stdout parsed as JSON, or the text itself if it is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _shown(value):
    if value is ABSENT:
        return "absent"
    text = json.dumps(value)
    return text if len(text) <= SHOWN else text[:SHOWN - 3] + "..."


def _compare(old, new):
    """(detail, largest change, {field: change}) of one call on two sides."""
    detail = ["exit equal" if old["exit"] == new["exit"]
              else f"exit {old['exit']} -> {new['exit']}"]
    shape_old, fields_old = _numbers(old["stdout"], old["pipeline"])
    shape_new, fields_new = _numbers(new["stdout"], new["pipeline"])
    if shape_old != shape_new:
        path, a, b = _shape_difference(_parsed(old["stdout"]), _parsed(new["stdout"]))
        return detail + [f"shape differs: {old['pipeline']} {path.lstrip('.') or '.'} "
                         f"{_shown(a)} -> {_shown(b)}"], math.inf, {}
    moved = {}
    for field, values in fields_old.items():
        change = max((abs(b - a) for a, b in zip(values, fields_new[field])
                      if a != b and not (math.isnan(a) and math.isnan(b))),
                     default=0.0)
        if change:
            moved[field] = change / max(max(abs(a) for a in values), ROUND_OFF)
    if not moved:
        return detail + ["shape equal", "no number moved"], 0.0, {}
    worst = max(moved, key=moved.get)
    largest = f"largest change {moved[worst]:.1e} of its scale in {worst}"
    if len(fields_old[worst]) == 1:
        largest += f" ({fields_old[worst][0]!r} -> {fields_new[worst][0]!r})"
    return detail + ["shape equal", largest], moved[worst], moved


def diff(base, head):
    """Lines "N of M calls differ", in all and per workload, then details."""
    def load(path):
        with open(path) as fh:
            return {(c["workload"], c["seed"], c["index"]): c
                    for c in json.load(fh)["calls"]}

    old, new = load(base), load(head)
    keys = sorted(old.keys() | new.keys())
    differ = {key for key in keys
              if key not in old or key not in new
              or (old[key]["exit"], old[key]["stdout"])
              != (new[key]["exit"], new[key]["stdout"])}
    lines = [f"{len(differ)} of {len(keys)} calls differ"]
    for workload in sorted({key[0] for key in keys}):
        mine = [key for key in keys if key[0] == workload]
        lines.append(f"{workload}: {len(differ.intersection(mine))} of "
                     f"{len(mine)} calls differ")
    ranked, fields = [], {}
    for workload, seed, idx in sorted(differ):
        key = (workload, seed, idx)
        call = new.get(key) or old[key]
        name = f"{workload} seed {seed} call {idx} ({call['pipeline']} {call['kind']})"
        if key in old and key in new:
            detail, change, moved = _compare(old[key], new[key])
        else:
            side = "head" if key in new else "base"
            detail, change, moved = [f"only in {side}"], math.inf, {}
        lines.append(f"  differs: {name}: {', '.join(detail)}")
        ranked.append((-change, name, detail[-1]))
        for field, rel in moved.items():
            count, most = fields.get(field, (0, 0.0))
            fields[field] = (count + 1, max(most, rel))
    if ranked:
        lines.append(f"worst {min(WORST, len(ranked))} calls:")
        lines += [f"  {name}: {last}" for _, name, last in sorted(ranked)[:WORST]]
    if fields:
        lines.append("fields that moved, by largest change of their scale:")
        lines += [f"  {most:.1e} {field} ({count} calls)" for field, (count, most)
                  in sorted(fields.items(), key=lambda item: (-item[1][1], item[0]))]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare two record files instead of running")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input coefficient by this factor")
    parser.add_argument("first", help="source tree, or the base record file")
    parser.add_argument("second", help="output file, or the head record file")
    args = parser.parse_args(argv)
    if args.diff:
        try:
            print("\n".join(diff(args.first, args.second)), flush=True)
        except BrokenPipeError:
            # the reader stopped early, as `| head` does: the report is
            # cut short, not failed, and the exit stays 0; stdout goes to
            # devnull so that the interpreter's last flush does not fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        record(args.first, args.second, args.scale)


if __name__ == "__main__":
    main()
