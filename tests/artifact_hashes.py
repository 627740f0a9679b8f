"""Print the sha256 of every artifact of a fixed set of toy runs.

A pure refactor should leave every artifact byte-identical. Run this script
once with each commit's ``src`` on ``PYTHONPATH``, in the same absolute work
directory (checkpoints store the config, paths included), and compare:

    PYTHONPATH=<parent>/src python tests/artifact_hashes.py /tmp/hashes > parent.txt
    rm -rf /tmp/hashes
    PYTHONPATH=src python tests/artifact_hashes.py /tmp/hashes > change.txt
    python tests/artifact_hashes.py --compare parent.txt change.txt

``--compare`` prints identical/total for each case (the first path
component) and over all, then names each file whose hash differs or that
only one listing has; it exits 1 when any does. It needs no ``envasr`` on
the path.

The runs use ``configs/toy.cfg`` cut to 300 steps on ``gen-corpus --n 16
--seed 11``, one out_dir each:

- ``toy``: pretraining, cross-attention ASR training, eval, then tokenize
  (codebooks loaded from disk, token TSVs written);
- ``patience``: pretraining with ``patience = 2``, ``eval_every = 7``, which
  stops early;
- ``baseline``: f64 ``self_attention_baseline`` ASR training without early
  stop, 95 steps with ``eval_every = 40`` (not a multiple), then eval;
- ``resume``: pretraining to step 150, then resumed from its checkpoint to 300;
- ``batch4``: cross-attention ASR training at ``batch_size = 4`` (the packed
  step), 100 steps with ``eval_every = 50``, then eval, on ``toy``'s
  pretraining checkpoint and codebooks;
- ``pretrain4``: pretraining at ``batch_size = 4`` (packed embedding, masks
  drawn over each utterance's video and audio segments, masked
  cross-entropy per utterance), 100 steps with ``schedule.stage_steps = 20``
  so the span width grows to 9;
- ``sampled``: tokenize with ``tokenize.sample_cap = 48``, below the
  corpus's 363 audio and 64 video patch rows, so both codebooks are fitted on
  a drawn sample;
- ``long``: tokenize, 40 steps of pretraining, 40 steps of ASR training and
  eval on a corpus of its own: 8 utterances of 13-60 symbols, built from the
  corpus module's synthesizers. Its longest utterances have about 600 LFBE
  frames, which span several front-end blocks; gen-corpus stops at 10
  symbols, 98 frames.

Only the runner's public entry points are used, so any commit can be hashed.
Output lines are ``<sha256>  <path relative to the work directory>``. When a
checkpoint's hash differs, ``tests/checkpoint_diff.py`` on the two files
shows which tensors differ and by how much.
"""

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
LONG_LENGTHS = (13, 60, 20, 53, 27, 47, 34, 40)  # symbols per ``long`` utterance


def config(work: Path, case: str, **overrides):
    from envasr.pipeline.config import parse_config_lines

    values = {"paths.data_dir": work / "data", "paths.out_dir": work / case,
              "max_steps": 300, **overrides}
    lines = TOY_CFG.read_text(encoding="utf-8").splitlines()
    return parse_config_lines(lines + [f"{k} = {v}" for k, v in values.items()])


def run_all(work: Path) -> None:
    # imported here, so that --compare runs without envasr on the path
    from envasr.pipeline import (generate_synthetic_corpus, run_asr_training, run_eval,
                                 run_pretraining, run_tokenize, write_corpus)
    from envasr.pipeline.corpus import (ENV_KINDS, SYMBOLS, SyntheticCorpus,
                                        SyntheticUtterance, synth_clip, synth_wave)

    write_corpus(generate_synthetic_corpus(16, seed=11), work / "data")
    toy = config(work, "toy")
    run_pretraining(toy)
    run_asr_training(toy)
    run_eval(toy)
    run_tokenize(toy)
    run_pretraining(config(work, "patience", patience=2, eval_every=7))
    baseline = config(work, "baseline", max_steps=95, eval_every=40,
                      **{"asr.fusion_mode": "self_attention_baseline",
                         "asr.dtype": "f64", "asr.early_stop_wer": -1.0})
    run_asr_training(baseline)
    run_eval(baseline)
    run_pretraining(config(work, "resume", max_steps=150))
    run_pretraining(config(work, "resume"), resume=str(work / "resume" / "pretrain.ckpt"))
    batched = config(work, "batch4", batch_size=4, max_steps=100, eval_every=50,
                     **{"paths.pretrain_checkpoint": work / "toy" / "pretrain.ckpt",
                        "paths.codebook_dir": work / "toy" / "codebooks"})
    run_asr_training(batched)
    run_eval(batched)
    run_pretraining(config(work, "pretrain4", batch_size=4, max_steps=100,
                           **{"schedule.stage_steps": 20}))
    run_tokenize(config(work, "sampled", **{"tokenize.sample_cap": 48}))
    rng = np.random.default_rng(7)
    utts = []
    for i, n_symbols in enumerate(LONG_LENGTHS):
        labels = rng.integers(0, len(SYMBOLS), n_symbols)
        env_id = i % len(ENV_KINDS)
        utts.append(SyntheticUtterance(f"long{i}", labels, env_id,
                                       synth_wave(labels, env_id, rng), synth_clip(env_id, rng)))
    write_corpus(SyntheticCorpus(utts, seed=7), work / "long-data")
    long = config(work, "long", max_steps=40, **{"paths.data_dir": work / "long-data"})
    run_tokenize(long)
    run_pretraining(long)
    run_asr_training(long)
    run_eval(long)


def read_listing(path) -> dict:
    """path relative to the work directory -> sha256, from a listing."""
    listing = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        listing[name] = digest
    return listing


def compare(a_path, b_path) -> int:
    """Print identical/total per case and over all, then every file that
    differs or is only in one listing; 1 if there is any, else 0."""
    a, b = read_listing(a_path), read_listing(b_path)
    names = sorted(a.keys() | b.keys())
    same = {name: a.get(name) == b.get(name) for name in names}
    cases = sorted({name.split("/")[0] for name in names})
    width = max(len(case) for case in cases + ["all"])
    for case in cases + ["all"]:
        members = [n for n in names if case == "all" or n.split("/")[0] == case]
        print(f"{case:<{width}}  {sum(same[n] for n in members)}/{len(members)} identical")
    for name in names:
        if name not in a or name not in b:
            print(f"only in {a_path if name in a else b_path}: {name}")
        elif not same[name]:
            print(f"differs: {name}")
    return 0 if all(same.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", nargs="?", help="work directory; must be missing or empty")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two listings this script printed instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.work is None:
        parser.error("give a work directory or --compare A B")
    work = Path(args.work).resolve()
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    work.mkdir(parents=True, exist_ok=True)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        run_all(work)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
