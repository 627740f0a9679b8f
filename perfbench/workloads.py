"""Workloads: configs, stage sequences, output checks and metrics.

Stages are driven only through ``envasr.pipeline.runner``'s public entry
points, each from a config file written here. Step times come from the
moments the runner prints its ``step=<n> loss=<f> ...`` lines, which are
captured in-process by swapping ``sys.stdout``, so any change to how a step
is computed is measured without touching this file.
"""

import io
import math
import re
import resource
import shutil
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from envasr.pipeline.config import load_config
from envasr.pipeline.data import load_corpus
from envasr.pipeline.runner import (run_asr_training, run_eval, run_pretraining,
                                    run_tokenize)
from envasr.serialize import read_raw_array

import gencorpus
from spans import Tracer

# shared by every workload: configs/toy.cfg's seed, lr, tokenizer, heads,
# fusion mode and SpecAugment policy, plus three settings of the benchmark
BASE = {
    "seed": 0,
    "optimizer.lr": 0.001,
    "tokenize.k_audio": 8,
    "tokenize.k_video": 16,
    "pretrain.heads": 4,
    "asr.heads": 4,
    "asr.fusion_mode": "cross_attention",
    "augment.freq_masks": 1,
    "augment.freq_width": 12,
    "augment.time_masks": 1,
    "augment.time_width": 6,
    # no early stop, so every run makes its requested steps
    "asr.early_stop_wer": -1.0,
    # checkpoint saves land inside the timed steps
    "checkpoint_every": 25,
    # a fixed Lloyd budget: every seed does the same k-means work
    "tokenize.max_iters": 3,
}
MID_STAGE1 = {"batch_size": 4, "pretrain.model_dim": 128, "pretrain.num_blocks": 6}
TOY_STAGE1 = {"pretrain.model_dim": 32, "pretrain.num_blocks": 2}

WARMUP_SECONDS = 1.0
TOKENIZE_SAMPLES = 32    # at least; spread evenly over the set-up and decode samples
PROBE_STEPS = 2      # steps of the extra runs that only sample set-up time
STAGE1_PREP_STEPS = 4
MIN_COVERAGE = 0.9

REPORT_RE = re.compile(r"^wer (\d+\.\d+) subs (\d+) ins (\d+) dels (\d+)$")


@dataclass(frozen=True)
class Workload:
    name: str
    asr: bool
    train_lengths: tuple
    heldout_lengths: tuple
    steps: int          # steps of each timed training run
    trace_steps: int    # steps of the traced training run
    probes: int         # set-up probes before the timed runs, and as many after
    evals: int          # run_eval calls after the timed runs
    shape: dict         # config values of this workload


WORKLOADS = {w.name: w for w in (
    Workload("pretrain-mid", False, gencorpus.SHORT_LENGTHS, (), 101, 41, 8, 0, MID_STAGE1),
    # every traced run covers a checkpoint save (after step 25)
    Workload("asr-mid", True, gencorpus.SHORT_LENGTHS, gencorpus.SHORT_LENGTHS, 101, 31, 2, 4,
             {**MID_STAGE1, "asr.model_dim": 256, "asr.num_blocks": 6,
              "asr.conv_kernel": 15}),
    # by 500 steps this model emits most labels of a held-out utterance, so
    # greedy decoding runs its emission loop, about equally for every seed
    Workload("asr-long", True, gencorpus.LONG_LENGTHS, gencorpus.LONG_LENGTHS, 501, 101, 8, 8,
             {**TOY_STAGE1, "batch_size": 1, "asr.model_dim": 64,
              "asr.num_blocks": 2, "asr.conv_kernel": 7}),
)}


class LineClock(io.TextIOBase):
    """stdout stand-in that timestamps every completed line."""

    def __init__(self):
        self.lines = []
        self._buf = ""

    def write(self, text):
        now = time.perf_counter()
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((now, line))
        return len(text)


@dataclass
class StageRun:
    summary: dict
    lines: list
    enter: float
    exit: float

    @property
    def wall(self):
        return self.exit - self.enter

    @property
    def steps(self):
        return [(t, s) for t, s in self.lines if s.startswith("step=")]

    @property
    def step_text(self):
        return [s for _, s in self.steps]

    @property
    def setup(self):
        return self.steps[0][0] - self.enter

    @property
    def gaps(self):
        return np.diff([t for t, _ in self.steps])

    @property
    def losses(self):
        return [float(s.split()[1].split("=")[1]) for s in self.step_text]


class Checks:
    """Stage calls and output checks, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def percentile_with_tail(values, want=90.0, tail=10):
    """The highest percentile up to `want` with `tail` samples beyond it."""
    n = len(values)
    q = min(want, 100.0 * (n - tail) / n)
    return float(np.percentile(values, q)), q


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.work = work
        self.checks = Checks()
        self.train_dir = work / "train"
        _, self.train_secs = gencorpus.write(seed, f"{wl.name}/train",
                                             wl.train_lengths, self.train_dir)
        if wl.asr:
            self.heldout_manifest, self.heldout_secs = gencorpus.write(
                seed, f"{wl.name}/heldout", wl.heldout_lengths, work / "heldout")
        self.codebooks = None
        self.stage1_ckpt = None

    # stage calls ---------------------------------------------------------------

    def config(self, tag, **values):
        cfg = {"paths.data_dir": self.train_dir, "paths.out_dir": self.work / tag,
               **BASE, **self.wl.shape}
        if self.codebooks is not None:
            cfg["paths.codebook_dir"] = self.codebooks
        if self.stage1_ckpt is not None:
            cfg["paths.pretrain_checkpoint"] = self.stage1_ckpt
        cfg.update(values)
        path = self.work / f"{tag}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        return path

    def stage(self, fn, cfg_path):
        """Call one stage entry point; an exception ends the run."""
        cfg = load_config(cfg_path)
        clock = LineClock()
        self.checks.attempted += 1
        enter = time.perf_counter()
        with redirect_stdout(clock):
            summary = fn(cfg)
        exit_ = time.perf_counter()
        # keep no trained model alive, so peak RSS is that of one stage call
        summary.pop("model", None)
        return StageRun(summary, clock.lines, enter, exit_)

    def tokenize(self, tag):
        """run_tokenize into a cold codebook directory."""
        cfg = self.config(tag, **{"paths.codebook_dir": self.work / tag / "codebooks"})
        run = self.stage(run_tokenize, cfg)
        self.checks.expect(run.summary["utterances"] == len(self.wl.train_lengths),
                           f"{tag}: tokenize saw every utterance")
        return run, Path(run.summary["codebook_dir"])

    def prepare_stage1(self):
        """Codebooks and an untimed short stage-1 checkpoint for ASR training."""
        _, self.codebooks = self.tokenize("stage1-tok")
        run = self.stage(run_pretraining, self.config(
            "stage1", max_steps=STAGE1_PREP_STEPS, eval_every=STAGE1_PREP_STEPS))
        self.stage1_ckpt = Path(run.summary["checkpoint"])

    def train(self, tag, steps):
        cfg = self.config(tag, max_steps=steps, eval_every=steps)
        run = self.stage(run_asr_training if self.wl.asr else run_pretraining, cfg)
        check = self.checks.expect
        check(run.summary["steps_run"] == steps, f"{tag}: steps_run == {steps}")
        check(len(run.steps) == steps, f"{tag}: one step line per step")
        losses = run.losses
        check(all(math.isfinite(x) for x in losses), f"{tag}: every loss finite")
        if steps >= 20:
            tenth = steps // 10
            check(statistics.fmean(losses[-tenth:]) < statistics.fmean(losses[:tenth]),
                  f"{tag}: the last tenth of steps has a lower mean loss than the first")
        if self.wl.asr:
            before, after = run.summary["env_hash_before"], run.summary["env_hash_after"]
            check(before is not None and before == after, f"{tag}: env encoder frozen")
        return run

    def evaluate(self, tag, asr_ckpt):
        cfg = self.config(tag, **{"paths.eval_manifest": self.heldout_manifest,
                                  "paths.asr_checkpoint": asr_ckpt})
        run = self.stage(run_eval, cfg)
        out = self.work / tag
        check = self.checks.expect
        hyps = (out / "hypotheses.txt").read_text(encoding="utf-8")
        check(hyps.count("\n") == len(self.wl.heldout_lengths),
              f"{tag}: one hypothesis line per held-out utterance")
        report = (out / "wer_report.txt").read_text(encoding="utf-8").strip()
        match = REPORT_RE.match(report)
        check(match is not None and float(match.group(1)) == round(run.summary["wer"], 4),
              f"{tag}: report line parses as wer/subs/ins/dels")
        patches = {u.name: u.raw_patches.shape[0] for u in load_corpus(self.heldout_manifest)}
        rows = {name: read_raw_array(out / "env_cache" / f"{name}.env").shape[0]
                for name in patches}
        check(rows == patches, f"{tag}: env cache rows match audio patches")
        return run, hyps

    def audio_per_step(self, step):
        b = self.wl.shape.get("batch_size", 1)
        n = len(self.train_secs)
        return sum(self.train_secs[(step * b + j) % n] for j in range(b))

    # the two kinds of run --------------------------------------------------------

    def prepare(self):
        """Untimed: codebooks (and for ASR a stage-1 checkpoint), then
        stage calls for WARMUP_SECONDS. A fresh process here often ran
        3-4x slower for about its first second."""
        if self.wl.asr:
            self.prepare_stage1()
        else:
            _, self.codebooks = self.tokenize("codebooks")
        end = time.perf_counter() + WARMUP_SECONDS
        k = 0
        while time.perf_counter() < end:
            self.tokenize(f"warmup-tok{k}")
            self.train(f"warmup{k}", PROBE_STEPS)
            for tag in (f"warmup-tok{k}", f"warmup{k}"):
                shutil.rmtree(self.work / tag)
            k += 1

    def end_to_end(self, seconds):
        wl, check = self.wl, self.checks.expect
        self.prepare()
        # tokenize and set-up samples are taken before and between the timed
        # runs and after the last, the decode samples after the first, a few
        # at a time: the machine's speed drifts over seconds to minutes, and
        # each metric should see the whole run, not one spell
        tok, probes, evals = [], [], []
        per_call = -(-TOKENIZE_SAMPLES // (2 * wl.probes + wl.evals))

        def sample(tag, call):
            for j in range(per_call):
                tok.append(self.tokenize(f"{tag}-tok{j}")[0].wall)
                shutil.rmtree(self.work / f"{tag}-tok{j}")
            call(tag)
            shutil.rmtree(self.work / tag)

        def probe(tag):
            probes.append(self.train(tag, PROBE_STEPS))

        def decode(tag):
            evals.append(self.evaluate(tag, main.summary["checkpoint"]))

        for k in range(wl.probes):
            sample(f"probe-a{k}", probe)

        after = []
        for k in range(max(wl.probes, wl.evals)):
            if k < wl.probes:
                after.append((f"probe-b{k}", probe))
            if k < wl.evals:
                after.append((f"eval-b{k}", decode))
        runs = [self.train("main", wl.steps)]
        main = runs[0]
        timed = main.steps[-1][0] - main.steps[0][0]
        per_gap = -(-len(after) // math.ceil(seconds / timed))
        while True:
            for tag, call in after[:per_gap]:
                sample(tag, call)
            del after[:per_gap]
            if timed >= seconds:
                break
            tag = f"rep{len(runs)}"
            rep = self.train(tag, wl.steps)
            check(rep.step_text == main.step_text, "repeat run prints identical step lines")
            timed += rep.steps[-1][0] - rep.steps[0][0]
            runs.append(rep)
            shutil.rmtree(self.work / tag)
        for tag, call in after:
            sample(tag, call)

        for run in probes:
            check(run.step_text == main.step_text[:PROBE_STEPS],
                  "same-seed run prints identical step lines")

        gaps = np.concatenate([r.gaps for r in runs])
        p90, q = percentile_with_tail(gaps)
        audio = sum(self.audio_per_step(s) for s in range(1, wl.steps)) * len(runs)
        tail = max(1, wl.steps // 10)
        # tokenize and decode samples are short (0.02-1 s) and the machine's
        # speed switches between two levels over spells of a second or more:
        # their median jumps between the levels from run to run, while their
        # mean (total time over calls) moves with the share of slow spells
        if wl.asr:
            check(len({hyps for _, hyps in evals}) == 1,
                  "eval reruns decode identical hypotheses")
            walls = [run.wall for run, _ in evals]
            decode_rtf = statistics.fmean(walls) / sum(self.heldout_secs)
            wer = evals[0][0].summary["wer"]
        else:
            # stage 1's inference: the closing masked-prediction pass over the
            # corpus (and final checkpoint save) after the last step line
            walls = [r.exit - r.steps[-1][0] for r in runs + probes]
            decode_rtf = statistics.fmean(walls) / sum(self.train_secs)
            wer = 1.0 - main.summary["masked_accuracy"]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(r.setup for r in runs + probes), "s"),
            "step_ms_p50": (1000.0 * float(np.median(gaps)), "ms"),
            "step_ms_p90": (1000.0 * p90, "ms"),
            "train_audio_s_per_s": (audio / timed, "s/s"),
            "tokenize_s": (statistics.fmean(tok), "s"),
            "decode_rtf": (decode_rtf, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        # quality of the trained model: chaotic in the input noise at this
        # size (see README), so reported but not gated
        unresolved = {"wer": (wer, "ratio"),
                      "loss_final": (statistics.fmean(main.losses[-tail:]), "nats")}
        info = {"unresolved": unresolved,
                "step_samples": int(gaps.size), "step_ms_p90_percentile": q,
                "timed_runs": len(runs), "steps_per_run": wl.steps,
                "setup_s_samples": [r.setup for r in runs + probes],
                "tokenize_s_samples": tok, "decode_s_samples": walls}
        return metrics, info

    def traced(self):
        """An untraced full-length run, then a traced run of the first
        trace_steps steps with the same seed, and for ASR a traced run_eval
        of the untraced run's model (the model --trace 0 decodes)."""
        wl, check = self.wl, self.checks.expect
        self.prepare()

        def one_pass(tag, steps):
            if not wl.asr:
                _, self.codebooks = self.tokenize(f"{tag}-tok")
            return self.train(tag, steps)

        plain = one_pass("plain", wl.steps)
        tracer = Tracer()
        tracer.install()
        try:
            traced = one_pass("traced", wl.trace_steps)
            decode = None
            if wl.asr:
                decode, _ = self.evaluate("traced-eval", plain.summary["checkpoint"])
        finally:
            tracer.uninstall()
        check(traced.step_text == plain.step_text[:wl.trace_steps],
              "traced run prints the untraced run's step lines byte for byte")
        layers = LayerReport(tracer, traced, decode, len(wl.heldout_lengths))
        check(layers.coverage >= MIN_COVERAGE,
              f"top-level spans cover >= {MIN_COVERAGE:.0%} of step time "
              f"(got {layers.coverage:.3f})")
        untraced_p50 = 1000.0 * float(np.median(plain.gaps[:wl.trace_steps - 1]))
        traced_p50 = 1000.0 * float(np.median(traced.gaps))
        metrics = layers.metrics()
        metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms/step")
        metrics["trace.step_coverage"] = (layers.coverage, "ratio")
        info = {"step_samples": int(traced.gaps.size), "untraced_step_ms_p50": untraced_p50,
                "traced_step_ms_p50": traced_p50, "span_table": layers.table()}
        return metrics, info, tracer


def _dur(span):
    return span[2] - span[1]


class LayerReport:
    """Per-layer totals from a traced training run and (ASR) a traced eval.

    Step-phase spans (between the first and last step line) are reported per
    timed step, decode-phase spans (inside run_eval) per decoded utterance,
    and set-up layers as totals over the whole traced pass.
    """

    def __init__(self, tracer, train: StageRun, decode, n_decoded):
        self.spans = tracer.spans
        self.counts = tracer.counts
        ts = [t for t, _ in train.steps]
        self.t0, self.t1 = ts[0], ts[-1]
        self.n_steps = len(ts) - 1
        self.decode = decode
        self.n_decoded = n_decoded
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += _dur(s)
        self.self_time = [_dur(s) - c for s, c in zip(self.spans, child)]
        top = sum(_dur(s) for s in self.spans if s[3] < 0 and self._in_steps(s[1]))
        self.coverage = top / (self.t1 - self.t0)

    def _in_steps(self, t):
        return self.t0 < t <= self.t1

    def _in_decode(self, t):
        return self.decode is not None and self.decode.enter <= t <= self.decode.exit

    def _phase(self, phase):
        if phase == "step":
            return self._in_steps, self.n_steps
        if phase == "decode":
            return self._in_decode, max(self.n_decoded, 1)
        return (lambda t: True), 1

    def time_ms(self, phase, names=(), ctx=None, self_only=False):
        keep, per = self._phase(phase)
        total = 0.0
        for i, s in enumerate(self.spans):
            if keep(s[1]) and (s[0] in names or (ctx is not None and s[4] == ctx
                                                 and s[0].endswith(".bwd"))):
                total += self.self_time[i] if self_only else _dur(s)
        return 1000.0 * total / per

    def count(self, phase, name, mean=False):
        keep, per = self._phase(phase)
        values = [v for n, t, v in self.counts if n == name and keep(t)]
        if mean:
            return statistics.fmean(values) if values else 0.0
        return sum(values) / per

    def metrics(self):
        """{name: (value, unit)} for every per-layer metric."""
        t, c = self.time_ms, self.count
        lookups = c("pass", "data.env_cache_lookups")
        hits = c("pass", "data.env_cache_hits")
        return {
            "optim.adam_ms": (t("step", {"optim.adam"}), "ms/step"),
            "optim.params": (c("step", "optim.params"), "count/step"),
            "transducer.alphas_ms": (t("step", {"transducer.alphas"}), "ms/step"),
            "transducer.betas_ms": (t("step", {"transducer.betas"}), "ms/step"),
            "transducer.grad_ms": (t("step", {"transducer.grad"}), "ms/step"),
            "transducer.lattice_cells": (c("step", "transducer.lattice_cells"),
                                         "count/step"),
            "transducer.greedy_ms": (t("decode", {"transducer.greedy"}), "ms/utt"),
            "transducer.joint_calls": (c("decode", "transducer.joint_calls"), "count/utt"),
            "autodiff.gelu_ms": (t("step", {"autodiff.gelu"}, ctx="gelu"), "ms/step"),
            "autodiff.attention_ms": (t("step", {"autodiff.attention"}, ctx="attention"),
                                      "ms/step"),
            "autodiff.matmul_ms": (t("step", {"autodiff.matmul", "autodiff.matmul.bwd"}),
                                   "ms/step"),
            "autodiff.norm_ms": (t("step", {"autodiff.norm"}, ctx="norm"), "ms/step"),
            "autodiff.conv_ms": (t("step", {"autodiff.conv", "autodiff.conv1d.bwd",
                                            "autodiff.depthwise_conv1d.bwd"}), "ms/step"),
            "autodiff.backward_ms": (t("step", {"autodiff.backward"}, self_only=True),
                                     "ms/step"),
            "env_encoder.forward_ms": (t("step", {"env_encoder.forward"}), "ms/step"),
            "env_encoder.positions": (c("step", "env_encoder.positions"), "count/step"),
            "env_encoder.extract_ms": (t("pass", {"env_encoder.extract"}), "ms"),
            "conformer.encode_ms": (t("step", {"conformer.encode"}), "ms/step"),
            "conformer.predict_ms": (t("step", {"conformer.predict"}), "ms/step"),
            "conformer.joint_ms": (t("step", {"conformer.joint"}), "ms/step"),
            "features.load_ms": (t("pass", {"features.load"}), "ms"),
            "features.patches": (c("pass", "features.patches"), "count"),
            "quantize.kmeans_ms": (t("pass", {"quantize.kmeans"}), "ms"),
            "quantize.assign_ms": (t("pass", {"quantize.assign"}), "ms"),
            "checkpoint.save_ms": (t("step", {"checkpoint.save"}), "ms/step"),
            "checkpoint.bytes": (c("pass", "checkpoint.bytes", mean=True), "bytes"),
            "data.env_cache_ms": (t("pass", {"data.env_cache"}), "ms"),
            "data.env_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "masking.sample_ms": (t("step", {"masking.sample"}), "ms/step"),
            "augment.specaug_ms": (t("step", {"augment.specaug"}), "ms/step"),
        }

    def table(self):
        """Calls, total and self ms of every span name: per timed step for
        spans inside the timed steps, summed for the rest of the pass
        (set-up, closing evaluation, decoding)."""
        rows = {}
        for i, s in enumerate(self.spans):
            phase = "step" if self._in_steps(s[1]) else "other"
            row = rows.setdefault((s[0], phase), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += _dur(s)
            row[2] += self.self_time[i]
        out = []
        for (name, phase), (calls, total, own) in sorted(rows.items()):
            per = self.n_steps if phase == "step" else 1
            out.append({"span": name, "phase": phase, "calls": calls / per,
                        "total_ms": 1000.0 * total / per, "self_ms": 1000.0 * own / per})
        return out
