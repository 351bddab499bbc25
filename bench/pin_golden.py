#!/usr/bin/env python3
"""Pin the golden stdout of the CLI verbs the cli workload cannot check by
a closed form: the README verbs and the spec-file verbs (choose-seed,
reduce, glue-tube) over every single-tube tilting datum of ranks 3 and 4.

Usage, from the repository root:  python3 bench/pin_golden.py

The output, bench/golden_cli.json, is committed; rerun only when a CLI
output is meant to change.  Every glue-tube entry is also checked to give
back the datum it was reduced from.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from siltglue import glue, tube  # noqa: E402

README = [
    ["enumerate-rigid", "--rank", "3", "--max-len", "4", "--pruefer"],
    ["classify-silting"],
    ["oracle-check", "--rank", "4", "--max-len", "6"],
    ["emit-quiver", "--rank", "3", "--max-len", "4"],
]

# The open configuration of the right gluing (acceptance criterion 7).
UNDETERMINED = ("curve points=[x:2, y:1] V={y}\npoint x\n[1,3]\npoint y\n"
                "[0,inf)\n")


TMP = os.path.join(ROOT, ".bench_tmp", "pin")


def run_cli(argv, files):
    os.makedirs(TMP, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(TMP, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "siltglue.cli"]
        + [a.replace("{dir}", TMP) for a in argv],
        capture_output=True, text=True, env=env, cwd=TMP, check=True)
    return proc.stdout


def entry(argv, files=None):
    files = files or {}
    return {"argv": argv, "files": files, "stdout": run_cli(argv, files)}


def main():
    out = {"readme": [entry(a) for a in README]}
    out["readme"].append(entry(
        ["glue-tube", "--spec", "{dir}/undetermined.txt", "--side", "right",
         "--lambda", "[1,3]", "--point", "x"],
        {"undetermined.txt": UNDETERMINED}))
    out["choose-seed"], out["reduce"], out["glue-tube"] = [], [], []
    k = 0
    for rank in (3, 4):
        for spec in glue.enumerate_single_tube_specs(rank):
            text = glue.serialize_spec(spec)
            seed = glue.choose_seed(spec, "x")
            lam = tube.render_arc(seed.espec.lambda_arc)
            name = f"datum{k}.txt"
            red_name = f"reduced{k}.txt"
            k += 1
            out["choose-seed"].append(entry(
                ["choose-seed", "--spec", "{dir}/" + name, "--point", "x"],
                {name: text}))
            out["reduce"].append(entry(
                ["reduce", "--spec", "{dir}/" + name, "--lambda", lam,
                 "--adjoint", seed.side, "--point", "x"], {name: text}))
            e = entry(["glue-tube", "--spec", "{dir}/" + red_name, "--side",
                       seed.side, "--lambda", lam, "--point", "x"],
                      {red_name: glue.serialize_spec(seed.reduced)})
            if not e["stdout"].endswith(text):
                raise SystemExit(f"glue-tube does not give back {name}")
            out["glue-tube"].append(e)
    with open(os.path.join(HERE, "golden_cli.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(TMP)


if __name__ == "__main__":
    main()
