"""Command-line surface tying the stages together.

    envasr gen-corpus --n 16 --seed 7 --out data/
    envasr tokenize  --config run.cfg
    envasr pretrain  --config run.cfg [--resume ckpt]
    envasr train-asr --config run.cfg
    envasr eval      --config run.cfg

`eval` decodes with the ASR checkpoint that `paths.asr_checkpoint` names.
Exit code 0 on success; nonzero with a one-line diagnostic on stderr.
"""

import argparse
import sys

from .config import load_config
from .corpus import generate_synthetic_corpus, write_corpus
from .runner import run_asr_training, run_eval, run_pretraining, run_tokenize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envasr",
        description="Two-stage environment-aware ASR pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-corpus", help="write a synthetic tone corpus")
    gen.add_argument("--n", type=int, required=True, help="number of utterances")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    for name in ("tokenize", "pretrain", "train-asr", "eval"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        if name == "pretrain":
            cmd.add_argument("--resume", help="checkpoint to resume from")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-corpus":
            manifest = write_corpus(generate_synthetic_corpus(args.n, args.seed), args.out)
            print(f"wrote {args.n} utterances, manifest {manifest}")
            return 0
        cfg = load_config(args.config)
        if args.command == "tokenize":
            summary = run_tokenize(cfg)
            print(f"unified vocab {summary['vocab_size']}, "
                  f"codebooks in {summary['codebook_dir']}")
        elif args.command == "pretrain":
            summary = run_pretraining(cfg, resume=args.resume)
            print(f"pretraining done: steps={summary['steps_run']} "
                  f"masked_accuracy={summary['masked_accuracy']:.4f} "
                  f"checkpoint={summary['checkpoint']}")
        elif args.command == "train-asr":
            summary = run_asr_training(cfg)
            wer = summary["final_wer"]
            print(f"asr training done: steps={summary['steps_run']} "
                  f"wer={'n/a' if wer is None else f'{wer:.4f}'} "
                  f"checkpoint={summary['checkpoint']}")
        else:
            run_eval(cfg)
        return 0
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
