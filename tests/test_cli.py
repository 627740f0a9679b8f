from envasr.pipeline import config_lines, parse_config_lines
from envasr.pipeline.cli import main


def write_cfg(path, data_dir, out_dir):
    lines = [f"paths.data_dir = {data_dir}", f"paths.out_dir = {out_dir}",
             "tokenize.k_audio = 8", "tokenize.k_video = 16", "max_steps = 3",
             "checkpoint_every = 3", "eval_every = 3", "augment.time_masks = 1",
             "augment.time_width = 6"]
    path.write_text("\n".join(config_lines(parse_config_lines(lines))) + "\n")
    return path


class TestGenCorpus:
    def test_writes_files_and_exits_zero(self, tmp_path, capsys):
        code = main(["gen-corpus", "--n", "5", "--seed", "3",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        assert (tmp_path / "c" / "manifest.tsv").is_file()
        assert len(list((tmp_path / "c").glob("*.wav"))) == 5
        assert len(list((tmp_path / "c").glob("*.clip"))) == 5
        assert "manifest" in capsys.readouterr().out


class TestStages:
    def test_pretrain_then_train_then_eval(self, tmp_path, corpus_dir, capsys):
        cfg_path = write_cfg(tmp_path / "run.cfg", corpus_dir, tmp_path / "out")
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "pretrain.ckpt").is_file()
        assert main(["train-asr", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "asr.ckpt").is_file()
        assert main(["eval", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "wer " in out

    def test_tokenize_command(self, tmp_path, corpus_dir, capsys):
        cfg_path = write_cfg(tmp_path / "t.cfg", corpus_dir, tmp_path / "tok")
        assert main(["tokenize", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "tok" / "codebooks" / "audio.cb").is_file()
        assert "unified vocab 24" in capsys.readouterr().out


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["pretrain", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invalid_config_value(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"paths.data_dir = {corpus_dir}\nbatch_size = 0\n")
        assert main(["pretrain", "--config", str(bad)]) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_eval_without_checkpoint(self, tmp_path, corpus_dir, capsys):
        cfg_path = write_cfg(tmp_path / "x.cfg", corpus_dir, tmp_path / "none")
        assert main(["eval", "--config", str(cfg_path)]) == 1
        assert "checkpoint not found" in capsys.readouterr().err

    def test_unknown_key_diagnostic(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "bad2.cfg"
        bad.write_text(f"paths.data_dir = {corpus_dir}\npaths.scratch = /x\n")
        assert main(["tokenize", "--config", str(bad)]) == 1
        assert "unknown key" in capsys.readouterr().err
