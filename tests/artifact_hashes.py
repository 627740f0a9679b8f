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

``--against`` does all of that in one step, for a git ref against the work
tree:

    python tests/artifact_hashes.py --against HEAD /tmp/hashes

It exports the ref's ``src`` with ``git archive``, hashes that tree and then
the work tree's ``src`` in the work directory, which it clears before each
run, prints the ``--compare`` table and exits 1 on any difference or failed
run. It removes the exported tree; the work directory keeps the work tree's
artifacts.

A case's out_dir holds its logs, checkpoints, hypotheses, WER report and
``env_cache/`` records, and, unless the case names another, its
``codebooks/``: the whitener, the codebooks, token TSVs, ``features/`` (one
features file per corpus) and ``env/`` (one directory of env-embedding
entries per corpus).

The runs use ``configs/toy.cfg`` cut to 300 steps on ``gen-corpus --n 16
--seed 11``, one out_dir each:

- ``toy``: pretraining, cross-attention ASR training, eval, then tokenize
  (codebooks loaded from disk, token TSVs written);
- ``toy-eval2``: a second eval of ``toy``'s checkpoints into a fresh
  out_dir on ``toy``'s codebooks, which takes every env embedding from
  ``env/``. The script exits 1 unless each of its files (hypotheses, WER
  report, ``env_cache/`` records) hashes equal to the same file of ``toy``;
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
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
TOY_CFG = REPO / "configs" / "toy.cfg"
LONG_LENGTHS = (13, 60, 20, 53, 27, 47, 34, 40)  # symbols per ``long`` utterance
RERUN = "toy-eval2"  # the case that repeats ``toy``'s eval


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
    run_eval(config(work, RERUN, **{"paths.codebook_dir": work / "toy" / "codebooks",
                                    "paths.pretrain_checkpoint": work / "toy" / "pretrain.ckpt",
                                    "paths.asr_checkpoint": work / "toy" / "asr.ckpt"}))
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


def rerun_differences(listing) -> list:
    """The files of the ``toy-eval2`` case whose hash is not that of the same
    file of ``toy``, in a listing (path -> sha256)."""
    return [name for name, digest in listing.items() if name.startswith(RERUN + "/")
            and listing.get("toy/" + name.split("/", 1)[1]) != digest]


def read_listing(path) -> dict:
    """path relative to the work directory -> sha256, from a listing."""
    listing = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        listing[name] = digest
    return listing


def compare(a_path, b_path, labels=None) -> int:
    """Print identical/total per case and over all, then every file that
    differs or is only in one listing, naming a listing by its `labels`
    entry (default: its path); 1 if there is any, else 0."""
    a, b = read_listing(a_path), read_listing(b_path)
    a_label, b_label = labels or (a_path, b_path)
    names = sorted(a.keys() | b.keys())
    same = {name: a.get(name) == b.get(name) for name in names}
    cases = sorted({name.split("/")[0] for name in names})
    width = max(len(case) for case in cases + ["all"])
    for case in cases + ["all"]:
        members = [n for n in names if case == "all" or n.split("/")[0] == case]
        print(f"{case:<{width}}  {sum(same[n] for n in members)}/{len(members)} identical")
    for name in names:
        if name not in a or name not in b:
            print(f"only in {a_label if name in a else b_label}: {name}")
        elif not same[name]:
            print(f"differs: {name}")
    return 0 if all(same.values()) else 1


def export_src(repo: Path, ref: str, dest: Path) -> Path:
    """The ``src`` directory of `ref` in the git repository `repo`, exported
    into `dest` with ``git archive``."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", ref, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def hash_run(src: Path, work: Path):
    """(listing, exit code) of this script run into `work` with `src` on
    PYTHONPATH; its stderr is passed on."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), str(work)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    return done.stdout, done.returncode


def against(ref: str, work: Path, repo: Path = REPO) -> int:
    """Hash `ref`'s ``src``, then `repo`'s work tree ``src``, each into the
    cleared `work`, and compare the listings; 1 on a difference or a failed
    run, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        srcs = {ref: export_src(repo, ref, tmp / "tree"), "work tree": repo / "src"}
        listings, failed = [], 0
        for i, src in enumerate(srcs.values()):
            shutil.rmtree(work, ignore_errors=True)
            listing, code = hash_run(src, work)
            failed |= code != 0
            listings.append(tmp / f"{i}.txt")
            listings[-1].write_text(listing, encoding="utf-8")
        return compare(*listings, labels=list(srcs)) | failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", nargs="?", help="work directory; must be missing or empty")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two listings this script printed instead")
    parser.add_argument("--against", metavar="REF",
                        help="hash git ref REF and the work tree in WORK and compare them")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.work is None:
        parser.error("give a work directory or --compare A B")
    work = Path(args.work).resolve()
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    if args.against:
        try:
            return against(args.against, work)
        except subprocess.CalledProcessError as exc:
            parser.error(f"git archive {args.against}: {exc.stderr.decode().strip()}")
    work.mkdir(parents=True, exist_ok=True)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        run_all(work)
    listing = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        name = str(path.relative_to(work))
        listing[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{listing[name]}  {name}")
    differences = rerun_differences(listing)
    for name in differences:
        print(f"differs from toy's eval: {name}", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
