"""Exit code and stdout of every benchmark corpus call, for one source tree.

    python tools/corpus_outputs.py TREE OUT.json
    python tools/corpus_outputs.py --diff BASE.json HEAD.json

The first form imports ``bszego`` from ``TREE/src`` and the corpus from
this checkout's ``bench/corpus.py`` (read only: no bytecode is written
there).  It builds the inputs of every workload at seeds 9137 and 311,
runs each call once in process on one BLAS thread, as ``bench/run.py``
does, and writes one record per call.  The input directory is replaced
by ``{inputs}`` in the recorded stdout.

The second form prints how many calls differ between two such files in
exit code or stdout bytes, in all and per workload.  For each differing
call it says whether the exit code and the JSON shape are equal (keys,
list lengths, the values of ``deg``, and the text of strings with their
numbers taken out), and the largest change of a printed number relative
to the largest magnitude in its field, in the base.  A field is a
pipeline and a path of keys, with list indices dropped; numbers inside a
string count in the string's field.  Then come the worst calls by that
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
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def record(tree, out):
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

    def walk(node, path):
        if isinstance(node, dict):
            # a key such as "5,7" indexes data, like a list position
            return {key: value if key == "deg" else
                    walk(value, f"{path}.{key}" if key.isidentifier() else path)
                    for key, value in node.items()}
        if isinstance(node, list):
            return [walk(value, path) for value in node]
        name = f"{pipeline} {path[1:] or '.'}"
        if isinstance(node, str):
            fields.setdefault(name, []).extend(
                float(x) for x in NUMBER.findall(node))
            return NUMBER.sub("#", node)
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            fields.setdefault(name, []).append(float(node))
            return float
        return node

    try:
        doc = json.loads(doc)
    except ValueError:
        return doc, {}
    return walk(doc, ""), fields


def _compare(old, new):
    """(detail, largest change, {field: change}) of one call on two sides."""
    detail = ["exit equal" if old["exit"] == new["exit"]
              else f"exit {old['exit']} -> {new['exit']}"]
    shape_old, fields_old = _numbers(old["stdout"], old["pipeline"])
    shape_new, fields_new = _numbers(new["stdout"], new["pipeline"])
    if shape_old != shape_new:
        return detail + ["shape differs"], math.inf, {}
    moved = {}
    for field, values in fields_old.items():
        change = max((abs(b - a) for a, b in zip(values, fields_new[field])
                      if a != b and not (math.isnan(a) and math.isnan(b))),
                     default=0.0)
        if change:
            scale = max(abs(a) for a in values)
            moved[field] = change / scale if scale else math.inf
    if not moved:
        return detail + ["shape equal", "no number moved"], 0.0, {}
    worst = max(moved, key=moved.get)
    return (detail + ["shape equal", f"largest change {moved[worst]:.1e} of "
                      f"its scale in {worst}"], moved[worst], moved)


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
    parser.add_argument("first", help="source tree, or the base record file")
    parser.add_argument("second", help="output file, or the head record file")
    args = parser.parse_args(argv)
    if args.diff:
        print("\n".join(diff(args.first, args.second)))
    else:
        record(args.first, args.second)


if __name__ == "__main__":
    main()
