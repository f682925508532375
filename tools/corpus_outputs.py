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
exit code or stdout bytes, in all and per workload.  It only reports and
always exits 0: a change that only removes code expects 0 differences,
while one that reorders arithmetic may move round-off.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
SEEDS = (9137, 311)


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


def diff(base, head):
    """Lines "N of M calls differ", in all and per workload."""
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
    for workload, seed, idx in sorted(differ):
        call = new.get((workload, seed, idx)) or old[(workload, seed, idx)]
        lines.append(f"  differs: {workload} seed {seed} call {idx} "
                     f"({call['pipeline']} {call['kind']})")
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
