"""Digests of one fixed CLI chain, to check that two checkouts write the same bytes.

    python3 scripts/cli_chain.py --src ../parent/src --out /tmp/chain-parent
    python3 scripts/cli_chain.py --src src --out /tmp/chain-new

Runs, in process and with paths relative to ``--out``: generate (3,000
entities, 60 + 60 subgraphs, seed 4), graphlets, train ds, finetune, train
bp, classify, eval-cls, filter with both split rules and bench-rec with
both variants.
Prints one sha256 per output file, per command's stderr (and eval-cls's
stdout) and per run manifest, the manifest with ``wall_time`` dropped.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

GENERATE = {"num_entities": 3000, "feature_dim": 6, "num_suspicious": 60,
            "num_licit_subgraphs": 60, "background_noise_edges": 150}
DATA = ["--data-dir", "data"]
SMALL = ["--hidden-dim", "16", "--epochs", "80", "--patience", "4"]
CHAIN = [
    ("generate", ["--config", "gen.json", "--out-dir", "data", "--seed", "4"]),
    ("graphlets", ["--subgraphs", "data/subgraphs.jsonl", "--out", "graphlets.json"]),
    ("train", ["--arch", "ds", *DATA, *SMALL, "--out", "ds.json"]),
    ("finetune", ["--model", "ds.json", *DATA, "--epochs", "30", "--patience", "3",
                  "--merge-max", "6", "--out", "tuned.json"]),
    ("train", ["--arch", "bp", "--pool", "max", *DATA, *SMALL, "--out", "bp.json"]),
    ("classify", ["--model", "tuned.json", *DATA, "--subgraphs", "data/subgraphs.jsonl",
                  "--out", "scores.csv"]),
    ("eval-cls", ["--model", "tuned.json", *DATA]),
    *(("filter", ["--model", "tuned.json", *DATA, "--senders", "senders.txt",
                  "--receivers", "receivers.txt", "--k", "5", "--split", split,
                  "--seed", "3", "--out", f"links-{split}.csv"])
      for split in ("sorted", "random")),
    *(("bench-rec", ["--model", "tuned.json", *DATA, "--settings", "1+5@2,1+20@3",
                     "--n-instances", "8", "--variant", variant, "--seed", "11",
                     "--out", f"bench-{variant}.json"])
      for variant in ("full", "no-iter")),
]


INPUTS = {"gen.json": json.dumps(GENERATE),
          "senders.txt": "".join(f"{i}\n" for i in range(0, 120, 4)),
          "receivers.txt": "".join(f"{i}\n" for i in range(2, 62, 3))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="a checkout's src directory")
    parser.add_argument("--out", required=True, help="a directory to create")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from revtrack import cli

    os.makedirs(args.out)  # a new directory, so that every file listed is the chain's
    os.chdir(args.out)
    for name, text in INPUTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for step, (command, argv) in enumerate(CHAIN):
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main([command, *argv])
        if code != 0:
            sys.exit(f"{command} exited {code}: {err.getvalue()}")
        text = (err.getvalue() + out.getvalue()).encode()
        print(f"{hashlib.sha256(text).hexdigest()}  [{step:02d} {command} stderr+stdout]")
    for root, _, files in sorted(os.walk(".")):
        for name in sorted(files):
            path = os.path.normpath(os.path.join(root, name))
            with open(path, "rb") as fh:
                data = fh.read()
            if "manifest" in name:
                manifest = json.loads(data)
                manifest.pop("wall_time")
                data = json.dumps(manifest, sort_keys=True).encode()
            print(f"{hashlib.sha256(data).hexdigest()}  {path}")


if __name__ == "__main__":
    main()
