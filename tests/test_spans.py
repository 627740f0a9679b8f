"""The benchmark's tracer (perfbench/spans.py) wraps program functions and
methods by name. A rename, or a step that stops calling one of them, would
otherwise show only in a traced benchmark run: the tracer must install, one
micro ASR step and one micro pretraining step must record the spans it
reads, and uninstalling must put every original back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import envasr.pipeline  # noqa: F401  (every module the tracer patches)
from envasr.asr import transducer
from envasr.asr.augment import SpecAugmentPolicy
from envasr.asr.conformer import AsrModel, ConformerConfig, Utterance, asr_step
from envasr.autodiff import Tensor
from envasr.env_encoder import EnvEncoder, EnvEncoderConfig, MultimodalBatch, pretrain_step
from envasr.optim import AdamHyper

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# what a step calls that the benchmark's per-layer metrics are made from
STEP_SPANS = {
    "autodiff.matmul", "autodiff.matmul.bwd", "autodiff.norm", "autodiff.attention",
    "autodiff.conv", "autodiff.conv1d.bwd", "autodiff.gelu", "autodiff.backward",
    "conformer.encode", "conformer.predict", "conformer.joint",
    "transducer.alphas", "transducer.betas", "transducer.grad", "transducer.greedy",
    "optim.adam", "augment.specaug", "masking.sample", "env_encoder.forward",
}
COUNTS = {"optim.params", "transducer.lattice_cells", "transducer.joint_calls",
          "env_encoder.positions"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def bindings():
    """Every attribute of the imported envasr modules and of the classes
    whose methods the tracer replaces."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("envasr") and module is not None:
            found.update(((name, attr), value) for attr, value in vars(module).items())
    for cls in (Tensor, AsrModel, EnvEncoder):
        found.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return found


def micro_steps(rng):
    asr = AsrModel(ConformerConfig(model_dim=8, num_blocks=1, heads=2, conv_kernel=3,
                                   env_dim=4, feature_dim=6, vocab_size=3), seed=0)
    utt = Utterance(rng.standard_normal((11, 6)), np.array([1, 0, 2]),
                    rng.standard_normal((4, 4)))
    asr_step(asr, [utt], [0], SpecAugmentPolicy(1, 2, 1, 2), AdamHyper(), step=0)
    # through the module, whose attribute the tracer replaces
    transducer.greedy_decode(asr, asr.encode([utt.features], [utt.env]).data)
    env = EnvEncoder(EnvEncoderConfig(model_dim=8, num_blocks=1, heads=2, vocab_size=6,
                                      audio_patch_dim=6, video_patch_dim=12,
                                      max_audio_positions=8, max_video_steps=4,
                                      max_grid_rows=2, max_grid_cols=2), seed=0)
    batch = MultimodalBatch(audio_patches=rng.standard_normal((4, 6)),
                            video_patches=rng.standard_normal((2, 12)), video_grid=(1, 2, 1),
                            labels=rng.integers(0, 6, 6))
    pretrain_step(env, [batch], AdamHyper(), step=0)


def test_tracer_records_a_step_and_uninstalls(rng):
    before = bindings()
    tracer = load_tracer()
    tracer.install()
    try:
        assert bindings() != before
        micro_steps(rng)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert STEP_SPANS <= names, sorted(STEP_SPANS - names)
    counted = {name for name, _, _ in tracer.counts}
    assert COUNTS <= counted, sorted(COUNTS - counted)
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
