from .checkpoint import Checkpoint, load_checkpoint, restore_params, save_checkpoint
from .config import (RunConfig, config_lines, conformer_config,
                     env_encoder_config, load_config, parse_config_lines)
from .corpus import (SYMBOLS, SyntheticCorpus, SyntheticUtterance,
                     generate_synthetic_corpus, load_manifest, write_corpus)
from .runner import run_asr_training, run_eval, run_pretraining, run_tokenize

__all__ = [
    "Checkpoint", "load_checkpoint", "restore_params", "save_checkpoint",
    "RunConfig", "config_lines", "conformer_config", "env_encoder_config",
    "load_config", "parse_config_lines", "SYMBOLS",
    "SyntheticCorpus", "SyntheticUtterance", "generate_synthetic_corpus",
    "load_manifest", "write_corpus",
    "run_asr_training", "run_eval", "run_pretraining", "run_tokenize",
]
