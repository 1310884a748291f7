import concurrent.futures
import csv
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import trajlm.cli as cli
import trajlm.intervene as intervene
from trajlm.checkpoint import load_checkpoint, read_header
from trajlm.cli import main
from trajlm.corpus import assemble_sequence, read_cohort_jsonl, v1_context
from trajlm.evalharness import predict_queries
from trajlm.intervene import (
    _sequence_end_time,
    add_months,
    apply_intervention,
    parse_intervention,
    simulate_cohort,
)
from trajlm.objective import TrainingDiverged
from trajlm.vocab import load_vocabulary

TRAIN_CONFIG = """
n_embd = 16
n_layers = 1
n_heads = 2
d_head = 4
continuous_pe_base_dim = 8
dropout = 0.0
max_seq_length = 256
lr = 0.002
gamma = 0.1
epochs = 1
batch_size = 4
warmup_steps = 5
seed = 9
SL_sigma = 0.01
augmentation_chance = 0.0
random_removal_chance = 0.0
random_block_removal_chance = 0.0
random_modality_subset_chance = 0.0
random_modality_exclusion_chance = 0.0
"""


DRUG_SPEC = {
    "intervention": {"kind": "append", "modality": "medication", "category_index": 0,
                     "frequency": 1, "duration": 12, "label": "drug_a"},
    "outcome": "t_target",
    "horizon_months": 12,
    "seed": 4,
}


def _visit1(doc: dict, event) -> bool:
    return datetime.fromisoformat(event["t"]) < datetime.fromisoformat(doc["visits"][1])


def _set_visit1(doc: dict, modality: str, value) -> dict:
    """A cohort line whose visit-1 events of `modality` read `value`, or are
    removed when `value` is None."""
    events = [
        {**e, "v": value} if e["m"] == modality and _visit1(doc, e) else e
        for e in doc["events"]
        if value is not None or e["m"] != modality or not _visit1(doc, e)
    ]
    return {**doc, "events": events}


def _csv_rows(path) -> list[list[str]]:
    return [r for r in csv.reader(Path(path).read_text().splitlines()) if r and not r[0].startswith("#")]


def _without_visit1(doc: dict) -> dict:
    """A cohort line with every event before the second visit removed."""
    v2 = datetime.fromisoformat(doc["visits"][1])
    events = [e for e in doc["events"] if datetime.fromisoformat(e["t"]) >= v2]
    assert events, "the participant needs second-visit events"
    return {**doc, "events": events}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end workspace shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cohort = root / "cohort.jsonl"
    vocab = root / "vocab.json"
    truth = root / "truth.json"
    assert main(["synth", "--seed", "7", "--participants", "24",
                 "--out", str(cohort), "--truth", str(truth), "--vocab-out", str(vocab)]) == 0
    config = root / "train.cfg"
    config.write_text(TRAIN_CONFIG, encoding="utf-8")
    ckpt = root / "model.ckpt"
    log = root / "train_log.csv"
    assert main(["train", "--cohort", str(cohort), "--vocab", str(vocab),
                 "--config", str(config), "--out", str(ckpt), "--log", str(log)]) == 0
    return {"root": root, "cohort": cohort, "vocab": vocab, "truth": truth, "ckpt": ckpt, "log": log}


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["synth", "--seed", "7", "--participants", "12", "--out", str(out),
                         "--truth", str(out) + ".truth.json"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert Path(str(a) + ".truth.json").read_bytes() == Path(str(b) + ".truth.json").read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("TRAJLM_SEED", "99")
        assert main(["synth", "--seed", "7", "--participants", "8", "--out", str(a)]) == 0
        monkeypatch.delenv("TRAJLM_SEED")
        assert main(["synth", "--seed", "99", "--participants", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_seed_env_is_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRAJLM_SEED", "abc")
        out = tmp_path / "a.jsonl"
        assert main(["synth", "--participants", "4", "--out", str(out)]) == 1
        assert "error: TRAJLM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_meta_sidecar(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--seed", "1", "--participants", "5", "--out", str(out)]) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["seed"] == 1
        assert "config_hash" in meta and "version" in meta


class TestVocabAndTokenize:
    def test_build_vocab_from_cohort(self, workspace, tmp_path):
        out = tmp_path / "v.json"
        assert main(["build-vocab", "--cohort", str(workspace["cohort"]), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = [m["name"] for m in doc["modalities"]]
        assert "x_core" in names and "medication" in names

    def test_tokenize(self, workspace, tmp_path):
        out = tmp_path / "tokens.jsonl"
        assert main(["tokenize", "--cohort", str(workspace["cohort"]),
                     "--vocab", str(workspace["vocab"]), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 24
        for row in rows[:3]:
            assert len(row["modalities"]) == len(row["tokens"]) + 1
            assert len(row["times"]) == len(row["tokens"]) + 1
            assert 0 <= row["visit_boundary"] <= len(row["tokens"])

    @pytest.mark.parametrize(
        "events, names",
        [
            ([{"v": 1.0}], ["has no key 'm'"]),
            ([{"m": "x"}], ["event 'x' has no key 'v'"]),
            ([{"m": 3, "v": 1.0}], ["'m' must be a modality name, got 3"]),
            ([{"m": "x", "v": None}], ["event 'x': 'v' must be a number or a string, got null"]),
            ([{"m": "x", "v": True}], ["event 'x': 'v' must be a number or a string, got true"]),
            ([{"m": "x", "v": [1.0]}], ["event 'x': 'v' must be a number or a string, got [1.0]"]),
            ([{"m": "x", "v": {"a": 1}}], ["event 'x': 'v' must be a number or a string, got {\"a\": 1}"]),
            ([{"m": "y", "v": 1.0}, {"m": "x", "v": "high"}], ["event 'x': 'v' must be a number, as the modality is continuous, got \"high\""]),
            ({"m": "x", "v": 1.0}, ["'events' must be a list of objects"]),
        ],
        ids=["no-modality", "no-value", "numeric-modality", "null", "bool", "list", "object", "mixed-kinds", "not-a-list"],
    )
    def test_build_vocab_names_file_line_and_modality_of_a_bad_event(self, tmp_path, capsys, events, names):
        """A missing key, a value neither number nor string, and a modality
        mixing numbers and strings (line 1 makes `x` continuous)."""
        at = "2021-03-01T09:00:00"
        if isinstance(events, list):
            events = [{"t": at, **e} for e in events]
        lines = [{"id": "a", "age": 50, "events": [{"t": at, "m": "x", "v": 2.0}]}, {"id": "b", "age": 50, "events": events}]
        cohort, out = tmp_path / "raw.jsonl", tmp_path / "v.json"
        cohort.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
        assert main(["build-vocab", "--cohort", str(cohort), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cohort}:2") and err.count("\n") == 1, err
        assert all(name in err for name in names), err
        assert not out.exists()

    def test_tokenize_encodes_every_participant_before_writing(self, workspace, tmp_path, capsys):
        """A value its modality cannot encode on the second line once left
        the first line's row behind."""
        lines = workspace["cohort"].read_text(encoding="utf-8").splitlines()[:2]
        lines[1] = json.dumps(_set_visit1(json.loads(lines[1]), "x_core", "high"))
        cohort, out = tmp_path / "cohort.jsonl", tmp_path / "tokens.jsonl"
        cohort.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["tokenize", "--cohort", str(cohort), "--vocab", str(workspace["vocab"]), "--out", str(out)]) == 1
        assert "cannot encode event" in capsys.readouterr().err
        assert not out.exists()

    def test_build_vocab_names_the_file_and_modality_of_a_single_value(self, tmp_path, capsys):
        """A continuous modality with one value once failed naming neither."""
        at = "2021-03-01T09:00:00"
        events = [{"t": at, "m": "x", "v": 1.0}, {"t": at, "m": "x", "v": 2.0}, {"t": at, "m": "y", "v": 5.0}]
        cohort, out = tmp_path / "raw.jsonl", tmp_path / "v.json"
        cohort.write_text(json.dumps({"id": "a", "age": 50, "events": events}) + "\n", encoding="utf-8")
        assert main(["build-vocab", "--cohort", str(cohort), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cohort}: continuous modality 'y': insufficient data: need at least 2 samples, got 1\n"
        )
        assert not out.exists()

    def test_missing_cohort_is_error(self, tmp_path, capsys):
        rc = main(["build-vocab", "--cohort", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert "missing file" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_and_log_written(self, workspace):
        assert workspace["ckpt"].exists()
        text = workspace["log"].read_text().splitlines()
        assert text[0].startswith("# seed=")
        assert any(line.startswith("# config_hash=") for line in text[:3])
        header_idx = next(i for i, line in enumerate(text) if not line.startswith("#"))
        assert text[header_idx] == "step,lr,loss,soft,mae,split,grad_norm,clipped,val_loss"
        assert len(text) > header_idx + 1

    def test_deterministic_checkpoints(self, workspace, tmp_path):
        config = tmp_path / "t.cfg"
        config.write_text(TRAIN_CONFIG, encoding="utf-8")
        outs = []
        for name in ("m1.ckpt", "m2.ckpt"):
            out = tmp_path / name
            assert main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                         "--config", str(config), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_val_fraction_holds_out_nothing(self, workspace, tmp_path, capsys):
        """val_fraction = 0 trains on every participant and says that no
        validation set was held out, where it printed 'best validation loss
        inf'; the log's val_loss column stays empty."""
        config = tmp_path / "t.cfg"
        config.write_text(TRAIN_CONFIG.replace("epochs = 1", "epochs = 2") + "val_fraction = 0\n", encoding="utf-8")
        out, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
        capsys.readouterr()
        assert main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                     "--config", str(config), "--out", str(out), "--log", str(log)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"no validation set was held out; checkpoint at {out}"
        assert [line.split(" step ")[0] for line in lines[:-1]] == ["epoch 1/2", "epoch 2/2"]
        assert not any("val_loss" in line for line in lines)
        rows = [line for line in log.read_text().splitlines() if not line.startswith("#")][1:]
        assert len(rows) == 2 * math.ceil(24 / 4)  # every one of the 24 participants, batches of 4
        assert all(row.endswith(",") for row in rows)
        assert math.isnan(read_header(out)["meta"]["val_loss"])

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense_key = 1\n", encoding="utf-8")
        rc = main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                   "--config", str(config), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_out_of_range_train_config_is_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(TRAIN_CONFIG.replace("batch_size = 4", "batch_size = 0"), encoding="utf-8")
        out = tmp_path / "x.ckpt"
        rc = main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}:12: 'batch_size' must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("SL_sigma = 0.01", "SL_sigma = nan", "sl_sigma must be finite and positive, got nan"),
            ("epochs = 1", "epochs = 0", "epochs must be at least 1, got 0"),
            # dropout 1.0 once ended in a TrainingDiverged traceback, logit_clamp 0 in a ZeroDivisionError one
            ("dropout = 0.0", "dropout = 1.0", "dropout must be in [0, 1), got 1.0"),
            ("dropout = 0.0", "logit_clamp = 0", "logit_clamp must be finite and positive, got 0.0"),
        ],
    )
    def test_out_of_range_loss_or_epochs_is_error(self, workspace, tmp_path, capsys, line, bad, message):
        """`message` is the config field's own rule error; the CLI says it of
        the key the file gives, at its line."""
        config = tmp_path / "bad.cfg"
        config.write_text(TRAIN_CONFIG.replace(line, bad), encoding="utf-8")
        out = tmp_path / "x.ckpt"
        rc = main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 1
        key, at = bad.split(" = ")[0], TRAIN_CONFIG.splitlines().index(line) + 1
        assert capsys.readouterr().err == f"error: {config}:{at}: {key!r} must {message.split(' must ', 1)[1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (("epochs = 1", "epochs = abc"), "{cfg}:11: 'epochs' must be an integer, got 'abc'"),
        (("lr = 0.002", "lr = fast"), "{cfg}:9: 'lr' must be a number, got 'fast'"),
        (("SL_sigma = 0.01", "random_block_removal_number = 2.5"), "{cfg}:15: 'random_block_removal_number' must be a whole number, got '2.5'"),
        (("SL_sigma = 0.01", "epochs = 3"), "{cfg}:15: 'epochs' is set again, after {cfg}:11"),
        (("SL_sigma = 0.01", "n_embed = 16"), "{cfg}:15: unknown config key 'n_embed'"),
        (("lr = 0.002", "lr = inf"), "{cfg}:9: 'lr' must be finite, got inf"),
        (("augmentation_chance = 0.0", "augmentation_chance = nan"), "{cfg}:16: 'augmentation_chance' must be in [0, 1], got nan"),
        (("SL_sigma = 0.01", "random_removal_rate = 5.0"), "{cfg}:15: 'random_removal_rate' must be in [0, 1], got 5.0"),
        (("SL_sigma = 0.01", "random_block_removal_number = -3"), "{cfg}:15: 'random_block_removal_number' must be at least 0, got -3"),
        (("n_heads = 2", "n_heads = 0"), "{cfg}:4: 'n_heads' must be positive, got 0"),
        (("lr = 0.002", "lr = 0"), "{cfg}:9: 'lr' must be positive, got 0.0"),
        (("SL_sigma = 0.01", "mae_loss_scale = -1"), "{cfg}:15: 'mae_loss_scale' must be finite and non-negative, got -1.0"),
        (("augmentation_chance = 0.0", "augmentation_chance = 1.5"), "{cfg}:16: 'augmentation_chance' must be in [0, 1], got 1.5"),
        (("lr = 0.002\ngamma = 0.1", "lr = 1e300\ngamma = 1e300"), "{cfg}:10: min_lr = gamma * lr: min_lr must be finite, got inf"),
    ], ids=["integer", "number", "whole", "twice", "unknown", "lr-inf", "chance-nan", "rate", "blocks",
            "model-rule", "train-rule", "loss-rule", "aug-rule", "gamma-sets-min-lr"])
    def test_bad_config_line_is_one_error_naming_the_key(self, workspace, tmp_path, capsys, edit, message):
        """`epochs = abc` once ended as a bare int() error naming neither file
        nor key, a second key won silently, and `lr = inf` trained until it
        diverged.  A value that breaks its config field's rule (the four
        `-rule` cases, one per config) once printed the dataclass field's
        name, as in `ValueError: peak_lr must be positive`, with no file or
        line."""
        config = tmp_path / "bad.cfg"
        config.write_text(TRAIN_CONFIG.replace(*edit), encoding="utf-8")
        out = tmp_path / "x.ckpt"
        rc = main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=config)}\n"
        assert not out.exists()

    def test_diverged_training_is_one_error_line(self, workspace, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise TrainingDiverged("non-finite loss at step 3")

        monkeypatch.setattr(cli, "train", diverge)
        config = tmp_path / "t.cfg"
        config.write_text(TRAIN_CONFIG, encoding="utf-8")
        rc = main(["train", "--cohort", str(workspace["cohort"]), "--vocab", str(workspace["vocab"]),
                   "--config", str(config), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: TrainingDiverged: non-finite loss at step 3\n"


class TestCountFlags:
    @pytest.mark.parametrize("argv, flag, value", [
        (["tokenize", "--cohort", "c.jsonl", "--vocab", "v.json", "--max-len", "-5"], "--max-len", -5),
        (["tokenize", "--cohort", "c.jsonl", "--vocab", "v.json", "--max-len", "0"], "--max-len", 0),
        (["synth", "--participants", "0"], "--participants", 0),
    ], ids=["max-len-negative", "max-len-zero", "participants-zero"])
    def test_count_below_one_rejected(self, tmp_path, capsys, argv, flag, value):
        """`--max-len -5` once dropped each participant's last five events and
        `--participants 0` failed deep inside vocabulary building."""
        out = tmp_path / "out.jsonl"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
        assert not out.exists()


class TestInspect:
    def test_manifest_printed(self, workspace, capsys):
        assert main(["inspect-checkpoint", "--ckpt", str(workspace["ckpt"])]) == 0
        out = capsys.readouterr().out
        assert "tok_embed" in out
        assert "total parameters:" in out
        assert "vocab_sha256:" in out


    @pytest.mark.parametrize("cut", [10, 100])
    def test_checkpoint_cut_inside_its_header_names_the_file(self, workspace, tmp_path, capsys, cut):
        """10 bytes once died in a `struct.error` traceback, 100 in a
        JSONDecodeError naming neither the file nor a truncation."""
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(workspace["ckpt"].read_bytes()[:cut])
        want = f"error: ValueError: checkpoint {str(ckpt)!r} is truncated: the file ends inside its header\n"
        assert main(["inspect-checkpoint", "--ckpt", str(ckpt)]) == 1
        assert capsys.readouterr().err == want
        assert main(["eval-ntp", "--ckpt", str(ckpt), "--cohort", str(workspace["cohort"]),
                     "--vocab", str(workspace["vocab"]), "--report", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == want


def _damage_header(raw: bytes, damage: str) -> bytes:
    """The checkpoint bytes `raw` with its magic or header damaged; the data
    section and its SHA-256 stay as they were."""
    if damage == "bad magic":
        return b"TRAJLM99" + raw[8:]
    (hlen,) = struct.unpack("<I", raw[8:12])
    text = raw[12 : 12 + hlen]
    if damage == "backslash":
        text = text[:8] + b"\\" + text[9:]  # the quote closing "config"
    else:
        header = json.loads(text)
        if damage == "no data_bytes":
            del header["data_bytes"]
        else:
            header["manifest"] = "tok_embed"
        text = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + hlen :]


class TestDamagedHeader:
    @pytest.mark.parametrize("damage, named", [
        ("bad magic", "is not a checkpoint file: bad magic b'TRAJLM99'"),
        ("backslash", "Invalid \\escape"),
        ("no data_bytes", "has no key 'data_bytes'"),
        ("manifest a string", "'manifest' must be a list of objects, got \"tok_embed\""),
    ])
    def test_error_names_the_file_and_key(self, workspace, tmp_path, capsys, damage, named):
        """A damaged header once escaped as a JSONDecodeError, KeyError or
        TypeError naming neither the file nor the key."""
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_bytes(_damage_header(workspace["ckpt"].read_bytes(), damage))
        where = repr(str(ckpt))
        with pytest.raises(ValueError) as raised:
            load_checkpoint(ckpt)
        assert where in str(raised.value) and named in str(raised.value)
        assert main(["inspect-checkpoint", "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err and named in err


class TestEval:
    def test_evals_run_with_scipy_blocked_and_no_process_pool(self, workspace, tmp_path):
        """numpy is the only runtime dependency: with every scipy import made
        to fail, eval-ntp (Pearson t-test p-values) and eval-longitudinal
        (those, and Fisher-Z comparisons against LOCF) exit 0, and at
        --workers 1 neither the import of trajlm.cli nor the evals load
        multiprocessing."""
        common = ["--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                  "--cohort", str(workspace["cohort"]), "--workers", "1"]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
            "from trajlm.cli import main\n"
            f"assert main(['eval-ntp', *{common!r}, '--report', {str(tmp_path / 'ntp.csv')!r}]) == 0\n"
            f"assert main(['eval-longitudinal', *{common!r}, '--baselines', 'locf', "
            f"'--report', {str(tmp_path / 'long.csv')!r}]) == 0\n"
            "print(sorted(m for m, v in sys.modules.items() if v is not None and m.split('.')[0] in ('scipy', 'multiprocessing')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"
        for report in ("ntp.csv", "long.csv"):
            header, *rows = _csv_rows(tmp_path / report)
            p_values = [float(row[header.index("p")]) for row in rows if row[header.index("p")]]
            assert any(0.0 <= p <= 1.0 for p in p_values), report

    def test_eval_ntp_report(self, workspace, tmp_path, capsys):
        report = tmp_path / "ntp.csv"
        summary = tmp_path / "ntp.json"
        assert main(["eval-ntp", "--ckpt", str(workspace["ckpt"]), "--cohort", str(workspace["cohort"]),
                     "--vocab", str(workspace["vocab"]), "--report", str(report), "--json", str(summary)]) == 0
        rows = [r for r in csv.reader(report.read_text().splitlines()) if r and not r[0].startswith("#")]
        assert rows[0] == ["modality", "n", "r", "p", "ci_low", "ci_high", "top1", "top5"]
        assert len(rows) > 3
        doc = json.loads(summary.read_text())
        assert "median_r" in doc

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_eval_ntp_counts_scored_and_skipped(self, workspace, tmp_path, capsys, workers):
        # a one-event participant has no next-token target and is not scored
        lines = workspace["cohort"].read_text(encoding="utf-8").splitlines()[:6]
        first = json.loads(lines[0])
        lines[0] = json.dumps({**first, "events": first["events"][:1]})
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["eval-ntp", "--ckpt", str(workspace["ckpt"]), "--cohort", str(cohort),
                     "--vocab", str(workspace["vocab"]), "--report", str(tmp_path / "r.csv"),
                     "--workers", workers]) == 0
        assert "report on 5 participants, 1 skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("command, cohort, reason", [
        ("eval-ntp", "empty", "no participant to score: 0 read"),
        ("eval-ntp", "one event each", "no participant to score: 3 read, none with 2 or more tokens"),
        ("eval-longitudinal", "empty", "no participant to forecast: 0 read"),
        ("eval-longitudinal", "one visit each", "no participant to forecast: 3 read"),
    ])
    def test_eval_scoring_no_one_is_error(self, workspace, tmp_path, capsys, command, cohort, reason):
        """An eval that scores no participant has no report to write: it is an
        error naming why, not a NaN median."""
        docs = [json.loads(line) for line in workspace["cohort"].read_text(encoding="utf-8").splitlines()[:3]]
        edit = {"empty": None, "one event each": lambda d: {**d, "events": d["events"][:1]},
                "one visit each": lambda d: {**d, "visits": d["visits"][:1]}}[cohort]
        path = tmp_path / "cohort.jsonl"
        path.write_text("".join(json.dumps(edit(d)) + "\n" for d in docs) if edit else "", encoding="utf-8")
        report, summary = tmp_path / "r.csv", tmp_path / "r.json"
        rc = main([command, "--ckpt", str(workspace["ckpt"]), "--cohort", str(path), "--vocab", str(workspace["vocab"]),
                   "--report", str(report), "--json", str(summary)])
        assert rc == 1
        assert f"error: {reason}" in capsys.readouterr().err
        assert not report.exists() and not summary.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_eval_longitudinal_counts_whom_it_forecast(self, workspace, tmp_path, capsys, workers):
        """Each participant read is counted once, by what became of it."""
        docs = [json.loads(line) for line in workspace["cohort"].read_text(encoding="utf-8").splitlines()[:6]]
        docs[1] = {**docs[1], "visits": docs[1]["visits"][:1]}
        docs[2] = _without_visit1(docs[2])
        v2 = datetime.fromisoformat(docs[3]["visits"][1])
        docs[3] = {**docs[3], "events": [e for e in docs[3]["events"]
                                         if datetime.fromisoformat(e["t"]) < v2 or e["m"] == "medication"]}
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        assert main(["eval-longitudinal", "--ckpt", str(workspace["ckpt"]), "--cohort", str(cohort),
                     "--vocab", str(workspace["vocab"]), "--report", str(tmp_path / "r.csv"), "--workers", workers]) == 0
        out = capsys.readouterr().out
        assert "counts: forecast=3 single_visit=1 empty_visit1_context=1 no_visit2_target=1\n" in out

    def test_json_summaries_are_strict_json(self, workspace, tmp_path):
        """A median r over no modality does not exist: one participant, with
        two events for eval-ntp, gives no continuous modality the 2 values a
        Pearson r needs, and both summaries write that median as null, never
        the NaN strict JSON lacks."""
        doc = json.loads(workspace["cohort"].read_text(encoding="utf-8").splitlines()[0])
        one, two_events = tmp_path / "one.jsonl", tmp_path / "two_events.jsonl"
        one.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        two_events.write_text(json.dumps({**doc, "events": doc["events"][:2]}) + "\n", encoding="utf-8")

        def strict(path):
            def reject(constant):
                raise ValueError(f"{path.name} holds {constant}, which is not JSON")

            return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)

        model = ["--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"])]
        ntp, longitudinal = tmp_path / "ntp.json", tmp_path / "long.json"
        assert main(["eval-ntp", *model, "--cohort", str(two_events), "--report", str(tmp_path / "ntp.csv"),
                     "--json", str(ntp)]) == 0
        assert main(["eval-longitudinal", *model, "--cohort", str(one), "--baselines", "locf",
                     "--report", str(tmp_path / "long.csv"), "--json", str(longitudinal)]) == 0
        assert strict(ntp)["median_r"] is None
        summary = strict(longitudinal)
        assert summary["model_median_r"] is None and summary["locf_median_r"] is None

    def test_eval_longitudinal_with_locf(self, workspace, tmp_path):
        report = tmp_path / "long.csv"
        assert main(["eval-longitudinal", "--ckpt", str(workspace["ckpt"]), "--cohort", str(workspace["cohort"]),
                     "--vocab", str(workspace["vocab"]), "--baselines", "locf",
                     "--report", str(report), "--json", str(tmp_path / "long.json")]) == 0
        assert report.exists()
        assert (tmp_path / "long.csv.locf.csv").exists()

    def test_eval_longitudinal_summary_is_pinned(self, workspace, tmp_path):
        """long.json on the workspace model: the medians, the linear
        baseline's skipped modality (a train cohort that keeps aux_5 in 4
        participants, one short of a fit), and each comparison's keys and
        Benjamini-Hochberg flag, in modality order."""
        lines = [json.loads(line) for line in workspace["cohort"].read_text(encoding="utf-8").splitlines()]
        train = tmp_path / "train.jsonl"
        train.write_text("".join(
            json.dumps({**doc, "events": [e for e in doc["events"] if e["m"] != "aux_5" or i < 4]}) + "\n"
            for i, doc in enumerate(lines)
        ), encoding="utf-8")
        summary = tmp_path / "long.json"
        assert main(["eval-longitudinal", "--ckpt", str(workspace["ckpt"]), "--cohort", str(workspace["cohort"]),
                     "--vocab", str(workspace["vocab"]), "--baselines", "locf,linear", "--train-cohort", str(train),
                     "--report", str(tmp_path / "long.csv"), "--json", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        pinned = {"model_median_r": 0.2262442957886076, "locf_median_r": 0.8677504356554577,
                  "linear_median_r": 0.6222003122695601}
        assert {k: doc[k] for k in pinned} == pytest.approx(pinned, rel=1e-6)
        assert "locf_skipped" not in doc and doc["linear_skipped"] == ["aux_5"]
        every = "x_core y_double d_drift t_target b_control aux_1 aux_2 aux_3 aux_4 aux_5 aux_6 aux_7".split()
        flags = {  # kind: (the modalities compared, those significant)
            "locf": (every, [m for m in every if m != "aux_5"]),
            "linear": ([m for m in every if m != "aux_5"], "d_drift t_target aux_2 aux_4 aux_6 aux_7".split()),
        }
        for kind, (compared, significant) in flags.items():
            comparisons = doc[f"{kind}_comparisons"]
            assert all(sorted(c) == sorted(["modality", "model_r", f"{kind}_r", "z", "p", "significant_fdr05"])
                       for c in comparisons)
            assert [c["modality"] for c in comparisons] == compared
            assert [c["modality"] for c in comparisons if c["significant_fdr05"]] == significant

    def test_eval_longitudinal_feeds_a_bmi_modality_to_the_linear_baseline(self, workspace, tmp_path, monkeypatch):
        """The linear baseline's BMI column holds a token of the vocabulary's
        `bmi` modality when it has one (aux_1 renamed), and is 0 otherwise
        (the synthetic vocabulary)."""
        designs = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: designs.append(a) or lstsq(a, b, rcond=rcond))
        renamed = {}
        for key in ("cohort", "vocab"):
            renamed[key] = tmp_path / workspace[key].name
            renamed[key].write_text(workspace[key].read_text().replace('"aux_1"', '"bmi"'), encoding="utf-8")
        ckpt = tmp_path / "bmi.ckpt"
        assert main(["train", "--cohort", str(renamed["cohort"]), "--vocab", str(renamed["vocab"]),
                     "--config", str(workspace["root"] / "train.cfg"), "--out", str(ckpt),
                     "--log", str(tmp_path / "log.csv")]) == 0
        bmi_columns = []
        for model in ((workspace["ckpt"], workspace["cohort"], workspace["vocab"]), (ckpt, *renamed.values())):
            designs.clear()
            assert main(["eval-longitudinal", "--ckpt", str(model[0]), "--cohort", str(model[1]),
                         "--vocab", str(model[2]), "--baselines", "locf,linear", "--train-cohort", str(model[1]),
                         "--report", str(tmp_path / "long.csv")]) == 0
            assert designs  # one fit per modality
            bmi_columns.append(np.concatenate([d[:, 4] for d in designs]))
        bmi = load_vocabulary(renamed["vocab"]).modality("bmi")
        assert not bmi_columns[0].any()
        assert set(bmi_columns[1]) <= set(range(bmi.cum_base, bmi.cum_base + bmi.n_tokens))

    def test_unknown_baseline_fails_before_inference(self, workspace, tmp_path, capsys):
        report = tmp_path / "long.csv"
        rc = main(["eval-longitudinal", "--ckpt", str(workspace["ckpt"]), "--cohort", str(workspace["cohort"]),
                   "--vocab", str(workspace["vocab"]), "--baselines", "locf,lcof",
                   "--report", str(report), "--json", str(tmp_path / "long.json")])
        assert rc == 1
        assert list(tmp_path.iterdir()) == []
        assert "error: unknown baseline kind 'lcof' in --baselines: choose from locf, linear" in capsys.readouterr().err

    def test_vocab_hash_mismatch_fails_before_inference(self, workspace, tmp_path, capsys):
        other_vocab = tmp_path / "other_vocab.json"
        assert main(["synth", "--seed", "123", "--participants", "6",
                     "--out", str(tmp_path / "o.jsonl"), "--vocab-out", str(other_vocab)]) == 0
        rc = main(["eval-ntp", "--ckpt", str(workspace["ckpt"]), "--cohort", str(workspace["cohort"]),
                   "--vocab", str(other_vocab), "--report", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "hash mismatch" in err
        assert not (tmp_path / "r.csv").exists()


class TestProbeAndSimulate:
    def test_probe_crossmodal(self, workspace, tmp_path):
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        assert main(["probe-crossmodal", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                     "--input", "x_core", "--output", "y_double",
                     "--time", "2022-06-06T09:00:00", "--out", str(out), "--plot", str(svg)]) == 0
        rows = [r for r in csv.reader(out.read_text().splitlines()) if r and not r[0].startswith("#")]
        assert rows[0] == ["input_midpoint", "expected_output"]
        assert len(rows) >= 3  # header plus one row per input bin
        assert svg.read_text().startswith("<svg")

    def test_simulate_noop_effect_zero(self, workspace, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "intervention": {"kind": "scale", "modalities": ["x_core"], "factor": 1.0, "label": "noop"},
            "outcome": "y_double",
            "horizon_months": 12,
            "seed": 4,
        }), encoding="utf-8")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                     "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(out)]) == 0
        text = out.read_text()
        assert "# effect_percent=0" in text

    @pytest.mark.parametrize("command, flags, outputs", [
        ("eval-ntp", ["--report", "r.csv", "--json", "r.json"], ["r.csv", "r.json"]),
        ("eval-longitudinal", ["--baselines", "locf", "--report", "r.csv", "--json", "r.json"],
         ["r.csv", "r.csv.locf.csv", "r.json"]),
        ("simulate", ["--spec", "spec.json", "--out", "r.csv"], ["r.csv"]),
    ], ids=["eval-ntp", "eval-longitudinal", "simulate"])
    def test_workers_byte_identical(self, workspace, tmp_path, monkeypatch, command, flags, outputs):
        pools = []

        class RecordedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        outs = {}
        for workers in ("1", "2"):
            run = tmp_path / f"workers{workers}"
            run.mkdir()
            (run / "spec.json").write_text(json.dumps(DRUG_SPEC), encoding="utf-8")
            assert main([command, "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                         "--cohort", str(workspace["cohort"]), "--workers", workers]
                        + [str(run / f) if "." in f else f for f in flags]) == 0
            outs[workers] = [(run / name).read_bytes() for name in outputs]
        assert pools == [2]
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulate_rows_carry_their_participant(self, workspace, tmp_path, capsys, workers):
        # the first participant has no visit-1 measurement, so only the other
        # five are simulated; each row must name the participant it answers
        lines = workspace["cohort"].read_text(encoding="utf-8").splitlines()[:6]
        lines[0] = json.dumps(_without_visit1(json.loads(lines[0])))
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(DRUG_SPEC), encoding="utf-8")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                     "--cohort", str(cohort), "--spec", str(spec), "--out", str(out), "--workers", workers]) == 0
        assert "simulated 5 participants" in capsys.readouterr().out

        params, config, _, vocab = cli._load_model(workspace["ckpt"], workspace["vocab"])
        records = read_cohort_jsonl(cohort, vocab)
        drug = parse_intervention(DRUG_SPEC["intervention"], vocab)
        outcome = vocab.modality(DRUG_SPEC["outcome"]).id
        rows = [r for r in csv.reader(out.read_text().splitlines()) if r and not r[0].startswith("#")][1:]
        assert [r[0] for r in rows] == [rec.participant_id for rec in records[1:]]
        for row, rec in zip(rows, records[1:]):
            alone = simulate_cohort(params, config, vocab, [rec], drug, outcome, DRUG_SPEC["horizon_months"])
            assert row[1:3] == [format(alone.control[0], ".10g"), format(alone.treatment[0], ".10g")]

    def test_simulate_plot_without_trajectory_is_error(self, tmp_path, monkeypatch, capsys):
        """--plot draws the trajectory, so without --trajectory it would write
        nothing: it is rejected before the model loads."""
        def never(*args, **kwargs):
            raise AssertionError("loaded the model")

        monkeypatch.setattr(cli, "_load_model", never)
        plot = tmp_path / "p.svg"
        rc = main(["simulate", "--ckpt", "m.ckpt", "--vocab", "v.json", "--cohort", "c.jsonl", "--spec", "s.json",
                   "--out", str(tmp_path / "r.csv"), "--plot", str(plot)])
        assert rc == 1
        assert "error: --plot draws the trajectory: give --trajectory with it" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_without_visit1_context_is_error(self, workspace, tmp_path, capsys):
        first = workspace["cohort"].read_text(encoding="utf-8").splitlines()[0]
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text(json.dumps(_without_visit1(json.loads(first))) + "\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(DRUG_SPEC), encoding="utf-8")
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(cohort), "--spec", str(spec), "--out", str(out)])
        assert rc == 1
        assert "visit-1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, workers, flags", [
        ("eval-ntp", "0", ["--report"]),
        ("eval-longitudinal", "-3", ["--report"]),
        ("simulate", "0", ["--spec", "s.json", "--out"]),
    ], ids=["eval-ntp", "eval-longitudinal", "simulate"])
    def test_workers_below_one_rejected(self, tmp_path, monkeypatch, capsys, command, workers, flags):
        def never(*args, **kwargs):
            raise AssertionError("ran past the --workers check")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        monkeypatch.setattr(cli, "_load_model", never)
        out = tmp_path / "out.csv"
        rc = main([command, "--ckpt", "m.ckpt", "--vocab", "v.json", "--cohort", "c.jsonl",
                   "--workers", workers, *flags, str(out)])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_unknown_comparator(self, workspace, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "intervention": {"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"},
            "outcome": "y_double",
            "eligibility": {"modality": "x_core", "comparator": ">", "threshold": 95.0},
        }), encoding="utf-8")
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "comparator" in capsys.readouterr().err

    def test_simulate_malformed_spec(self, workspace, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{ not json", encoding="utf-8")
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_simulate_nan_factor_is_error(self, workspace, tmp_path, capsys):
        """JSON reads NaN; a NaN factor once failed on the first scaled
        participant with an error that blamed the measurement."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "intervention": {"kind": "scale", "modalities": ["x_core"], "factor": math.nan, "label": "diet"},
            "outcome": "y_double",
        }), encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: intervention spec {str(spec)!r}: 'intervention': 'factor' must be finite and positive, got NaN\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["outcome", "intervention"])
    def test_simulate_spec_missing_key_names_file_and_key(self, workspace, tmp_path, capsys, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({k: v for k, v in DRUG_SPEC.items() if k != key}), encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: intervention spec {str(spec)!r} has no key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, key, must, got", [
        ({"eligibility": {"modality": "x_core", "comparator": ">=", "threshold": None}}, "threshold", "a number", "null"),
        ({"seed": "abc"}, "seed", "a whole number >= 0", '"abc"'),
        ({"seed": True}, "seed", "a whole number >= 0", "true"),
        ({"seed": -1}, "seed", "a whole number >= 0", "-1"),
        ({"intervention": {"kind": "scale", "modalities": ["x_core"], "factor": None}}, "factor", "a number", "null"),
        ({"intervention": {**DRUG_SPEC["intervention"], "frequency": "1"}}, "frequency", "a whole number", '"1"'),
        ({"intervention": {**DRUG_SPEC["intervention"], "modality": 3}}, "modality", "a string", "3"),
        ({"intervention": {**DRUG_SPEC["intervention"], "label": 5}}, "label", "a string", "5"),
        ({"outcome": ["t_target"]}, "outcome", "a string", '["t_target"]'),
        ({"eligibility": None}, "eligibility", "an object", "null"),
    ], ids=["threshold-null", "seed-string", "seed-true", "seed-negative", "factor-null", "frequency-string",
            "modality-id", "label-number", "outcome-list", "eligibility-null"])
    def test_simulate_spec_value_of_wrong_type_names_file_and_key(self, workspace, tmp_path, capsys, edit, key, must, got):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**DRUG_SPEC, **edit}), encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--cohort", str(workspace["cohort"]), "--spec", str(spec), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: intervention spec {str(spec)!r}: {key!r} must be {must}, got {got}\n"
        assert not out.exists()


class TestSimulatePlan:
    """`simulate` answers each participant's screen, arms and trajectory in
    one query plan, fanned out through --workers."""

    def _run(self, workspace, cohort, spec_doc, out, *flags):
        spec = Path(out).parent / "spec.json"
        spec.write_text(json.dumps(spec_doc), encoding="utf-8")
        return main(["simulate", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                     "--cohort", str(cohort), "--spec", str(spec), "--out", str(out), *flags])

    @pytest.mark.parametrize("horizon", [-6, 0, 6.5, 25])
    def test_bad_horizon_rejected(self, workspace, tmp_path, capsys, horizon):
        out = tmp_path / "sim.csv"
        rc = self._run(workspace, workspace["cohort"], {**DRUG_SPEC, "horizon_months": horizon}, out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: intervention spec") and f"got {horizon!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_counts_one_participant_per_exclusion(self, workspace, tmp_path, capsys, workers):
        params, config, _, vocab = cli._load_model(workspace["ckpt"], workspace["vocab"])
        mids = vocab.modality("x_core").midpoints
        docs = [json.loads(line) for line in workspace["cohort"].read_text(encoding="utf-8").splitlines()[:6]]
        docs[0] = _without_visit1(docs[0])
        docs[1] = _set_visit1(docs[1], "x_core", None)
        docs[2] = _set_visit1(docs[2], "x_core", min(mids))
        docs[3:] = [_set_visit1(d, "x_core", max(mids)) for d in docs[3:]]
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        x_core = vocab.modality("x_core").id
        preds = []
        for rec in read_cohort_jsonl(cohort, vocab)[3:]:
            seq = assemble_sequence(v1_context(rec), vocab, config.max_seq_len)
            when = add_months(_sequence_end_time(seq), DRUG_SPEC["horizon_months"])
            preds += predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(x_core, when)])
        low, second = sorted(preds)[:2]
        assert low < second
        # docs[2] fails the observed screen, the lowest prediction the predicted one
        screen = {"modality": "x_core", "comparator": ">=", "threshold": (low + second) / 2}
        out = tmp_path / "sim.csv"
        assert self._run(workspace, cohort, {**DRUG_SPEC, "eligibility": screen}, out, "--workers", workers) == 0
        counts = {
            "participants_read": 6, "no_visit1_context": 1, "missing_rule_modality": 1,
            "excluded_observed": 1, "excluded_predicted": 1, "simulated": 2,
        }
        console = capsys.readouterr().out
        assert "eligibility: 2 kept, 1 missing the rule modality" in console
        assert "counts: " + " ".join(f"{k}={v}" for k, v in counts.items()) in console
        header = [line for line in out.read_text().splitlines() if line.startswith("# ")]
        assert all(f"# {k}={v}" in header for k, v in counts.items())
        kept = [docs[3 + i]["id"] for i, p in enumerate(preds) if p != low]
        assert [r[0] for r in _csv_rows(out)[1:]] == kept

    def test_trajectory_builds_one_context_edit_per_participant(self, workspace, tmp_path, monkeypatch):
        """A 12-month course under `--trajectory` at a 12-month horizon is
        its own horizon context: one apply_intervention call per participant."""
        inner = intervene.apply_intervention
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(intervene, "apply_intervention", counted)
        out = tmp_path / "sim.csv"
        assert self._run(workspace, workspace["cohort"], DRUG_SPEC, out, "--trajectory") == 0
        header = dict(line[2:].split("=", 1) for line in out.read_text().splitlines() if line.startswith("# "))
        assert int(header["simulated"]) > 0
        assert len(calls) == int(header["simulated"])  # no screen, so every planned participant is simulated

    def test_trajectory_with_screen_matches_separate_calls(self, workspace, tmp_path, monkeypatch):
        """The planned CLI run against one predict_queries pass per context
        and query, participant by participant."""
        pools = []

        class RecordedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        screen = {"modality": "x_core", "comparator": ">=", "threshold": 95.0}
        doc = {**DRUG_SPEC, "eligibility": screen}
        outs = {}
        for workers in ("1", "2"):
            run = tmp_path / f"workers{workers}"
            run.mkdir()
            out = run / "sim.csv"
            assert self._run(workspace, workspace["cohort"], doc, out, "--trajectory", "--workers", workers) == 0
            outs[workers] = [out.read_bytes(), Path(f"{out}.trajectory.csv").read_bytes()]
        assert pools == [2]
        assert outs["1"] == outs["2"]

        params, config, _, vocab = cli._load_model(workspace["ckpt"], workspace["vocab"])
        records = read_cohort_jsonl(workspace["cohort"], vocab)
        x_core = vocab.modality("x_core").id
        drug = parse_intervention(DRUG_SPEC["intervention"], vocab)
        outcome = vocab.modality(DRUG_SPEC["outcome"]).id
        horizon = DRUG_SPEC["horizon_months"]

        def single(rec, seq, modality, when):
            return predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(modality, when)])[0]

        def dosed(seq, months):
            return apply_intervention(seq, drug, vocab, months=months)

        kept, arms, deltas = [], [], []
        for rec in records:
            ctx = v1_context(rec)
            observed = [e.value for e in ctx.events if e.modality == x_core]
            if not observed or observed[-1] < 95.0:
                continue
            v1 = assemble_sequence(ctx, vocab, config.max_seq_len)
            at = [add_months(_sequence_end_time(v1), t) for t in range(horizon + 1)]  # t months after visit 1
            if single(rec, v1, x_core, at[horizon]) < 95.0:
                continue
            kept.append(rec.participant_id)
            arms.append((single(rec, v1, outcome, at[horizon]), single(rec, dosed(v1, drug.duration), outcome, at[horizon])))
            deltas.append([
                single(rec, dosed(v1, t), outcome, at[t]) - single(rec, v1, outcome, at[t]) for t in range(1, horizon + 1)
            ])
        deltas = np.array(deltas)
        mids = vocab.modalities[outcome].midpoints
        tol = 1e-5 * (max(mids) - min(mids))

        rows = _csv_rows(tmp_path / "workers1" / "sim.csv")[1:]
        assert 0 < len(rows) < len(records)
        assert [r[0] for r in rows] == kept
        for row, (c, t) in zip(rows, arms):
            assert abs(float(row[1]) - c) <= tol and abs(float(row[2]) - t) <= tol
        months = _csv_rows(tmp_path / "workers1" / "sim.csv.trajectory.csv")[1:]
        assert [int(m[0]) for m in months] == list(range(1, horizon + 1))
        for m, d in zip(months, deltas.T):
            assert abs(float(m[1]) - d.mean()) <= tol
            assert abs(float(m[2]) - d.std(ddof=1) / np.sqrt(len(d))) <= tol


class TestEventOrder:
    def test_artifacts_do_not_depend_on_the_order_of_events_in_the_file(self, workspace, tmp_path):
        """Two cohorts that hold the same events in another order give the
        same `simulate` and `eval-longitudinal` bytes.  Each participant gains
        a visit-1 `x_core` value below the rule one minute before its last
        one, which the screen once read when it came last in the file, and a
        second value at the same minute as its last visit-1 and its first
        visit-2 `x_core`, whose tie `eval-longitudinal` once broke by file
        order (shifted by an amount that differs per participant, since a
        Pearson r does not see one common shift)."""
        docs = [json.loads(line) for line in workspace["cohort"].read_text(encoding="utf-8").splitlines()[:8]]
        orders = {"appended": [], "prepended": []}
        for i, doc in enumerate(docs):
            x_core = [e for e in doc["events"] if e["m"] == "x_core"]
            last_v1 = max((e for e in x_core if _visit1(doc, e)), key=lambda e: e["t"])
            first_v2 = min((e for e in x_core if not _visit1(doc, e)), key=lambda e: e["t"])
            before = (datetime.fromisoformat(last_v1["t"]) - timedelta(minutes=1)).isoformat()
            extra = [{**last_v1, "v": last_v1["v"] + 5.0 * i}, {**first_v2, "v": first_v2["v"] + 3.0 * i},
                     {**last_v1, "t": before, "v": -1000.0}]
            orders["appended"].append({**doc, "events": doc["events"] + extra})
            orders["prepended"].append({**doc, "events": extra[::-1] + doc["events"]})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**DRUG_SPEC, "eligibility": {"modality": "x_core", "comparator": ">=",
                                                                 "threshold": -500.0}}), encoding="utf-8")
        outputs = {}
        for order, cohort_docs in orders.items():
            out = tmp_path / order
            out.mkdir()
            cohort = out / "cohort.jsonl"
            cohort.write_text("".join(json.dumps(d) + "\n" for d in cohort_docs), encoding="utf-8")
            model = ["--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]), "--cohort", str(cohort)]
            assert main(["simulate", *model, "--spec", str(spec), "--out", str(out / "sim.csv")]) == 0
            assert main(["eval-longitudinal", *model, "--baselines", "locf", "--report", str(out / "long.csv"),
                         "--json", str(out / "long.json")]) == 0
            outputs[order] = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "cohort.jsonl"}
        assert sorted(outputs["appended"]) == ["long.csv", "long.csv.locf.csv", "long.json", "sim.csv"]
        assert outputs["appended"] == outputs["prepended"]
        assert len(_csv_rows(tmp_path / "appended" / "sim.csv")) == 1 + len(docs)


class TestTrialRun:
    def test_forest_output(self, workspace, tmp_path):
        trials = tmp_path / "trials"
        trials.mkdir()
        (trials / "demo.json").write_text(json.dumps({
            "name": "demo",
            "n": 12,
            "table1": [
                {"modality": "age", "mean": 60, "sd": 5, "low": 40, "high": 80},
                {"modality": "t_target", "mean": 160, "sd": 10, "low": 100, "high": 220},
                {"modality": "x_core", "mean": 100, "sd": 8, "low": 60, "high": 140},
            ],
            "arms": [{"kind": "append", "modality": "medication", "category_index": 0,
                      "frequency": 1, "duration": 12, "label": "drug_a"}],
            "outcome": "t_target",
            "horizon_months": 12,
            "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
        }), encoding="utf-8")
        out = tmp_path / "forest.csv"
        svg = tmp_path / "forest.svg"
        assert main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                     "--trials", str(trials), "--out", str(out), "--plot", str(svg), "--seed", "5"]) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("# direction_hits=") for line in lines)
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        assert [r["trial"] for r in rows] == ["demo"]
        # every sampled participant has a visit-1 measurement
        assert (rows[0]["participants_read"], rows[0]["simulated"]) == ("12", "12")
        assert svg.exists()

    @pytest.mark.parametrize("arms", [1, 2])
    @pytest.mark.parametrize("change", ["n=0", "age only"])
    def test_trial_simulating_no_one_is_error(self, workspace, tmp_path, capsys, arms, change):
        # a table1 of age alone gives participants without any measurement
        drug = {"kind": "append", "modality": "medication", "category_index": 0,
                "frequency": 1, "duration": 12, "label": "drug_a"}
        diet = {"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"}
        age = {"modality": "age", "mean": 60, "sd": 5, "low": 40, "high": 80}
        target = {"modality": "t_target", "mean": 160, "sd": 10, "low": 100, "high": 220}
        doc = {
            "name": "hollow", "n": 0 if change == "n=0" else 12,
            "table1": [age] if change == "age only" else [age, target],
            "arms": [drug, diet][:arms], "outcome": "t_target", "horizon_months": 12,
            "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
        }
        trials = tmp_path / "trials"
        trials.mkdir()
        (trials / "hollow.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "forest.csv"
        rc = main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--trials", str(trials), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "hollow" in err and ("got 0" in err if change == "n=0" else "no participant" in err)
        assert not out.exists()

    def test_nan_in_spec_is_error(self, workspace, tmp_path, capsys):
        # Python's json reads a literal NaN; the sampler must never see it,
        # nor a number given as a string
        for i, mean in enumerate([math.nan, "100"]):
            doc = {
                "name": "nan", "n": 12,
                "table1": [{"modality": "x_core", "mean": mean, "sd": 5, "low": 60, "high": 140}],
                "arms": [{"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"}],
                "outcome": "t_target", "horizon_months": 12,
                "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
            }
            trials = tmp_path / f"trials{i}"
            trials.mkdir()
            (trials / "nan.json").write_text(json.dumps(doc), encoding="utf-8")
            assert ("NaN" if i == 0 else '"100"') in (trials / "nan.json").read_text(encoding="utf-8")
            out = tmp_path / "forest.csv"
            rc = main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                       "--trials", str(trials), "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "nan.json" in err and "x_core" in err, err
            assert not out.exists()

    @pytest.mark.parametrize("edit, key, must, got", [
        ({"published": {"point": None, "ci_low": -25.0, "ci_high": -15.0}}, "point", "a number", "null"),
        ({"published": None}, "published", "an object", "null"),
        ({"arms": [{"kind": "scale", "modalities": ["x_core"], "factor": None}]}, "factor", "a number", "null"),
        ({"arms": [{"kind": "scale", "modalities": [0], "factor": 0.9}]}, "modalities", "a list of strings", "[0]"),
        ({"arms": ["drug_a"]}, "arms", "a list of objects", '["drug_a"]'),
        ({"table1": [{"modality": 2, "mean": 100, "sd": 5, "low": 60, "high": 140}]}, "modality", "a string", "2"),
    ], ids=["point-null", "published-null", "factor-null", "modality-ids", "arm-string", "table1-modality-id"])
    def test_trial_value_of_wrong_type_names_file_and_key(self, workspace, tmp_path, capsys, edit, key, must, got):
        doc = {
            "name": "typed", "n": 12,
            "table1": [{"modality": "x_core", "mean": 100, "sd": 5, "low": 60, "high": 140}],
            "arms": [{"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"}],
            "outcome": "t_target", "horizon_months": 12,
            "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
        }
        trials = tmp_path / "trials"
        trials.mkdir()
        (trials / "typed.json").write_text(json.dumps({**doc, **edit}), encoding="utf-8")
        out = tmp_path / "forest.csv"
        rc = main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--trials", str(trials), "--out", str(out)])
        assert rc == 1
        path = str(trials / "typed.json")
        assert capsys.readouterr().err == f"error: trial spec typed.json {path!r}: {key!r} must be {must}, got {got}\n"
        assert not out.exists()

    def test_trial_missing_key_names_file_and_key(self, workspace, tmp_path, capsys):
        trials = tmp_path / "trials"
        trials.mkdir()
        doc = {
            "name": "short", "n": 12,
            "table1": [{"modality": "x_core", "mean": 100, "sd": 5, "low": 60, "high": 140}],
            "arms": [{"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"}],
            "outcome": "t_target",
            "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
        }
        (trials / "short.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "forest.csv"
        rc = main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--trials", str(trials), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: trial spec short.json {str(trials / 'short.json')!r} has no key 'horizon_months'\n"
        assert not out.exists()

    def test_empty_trials_dir(self, workspace, tmp_path, capsys):
        trials = tmp_path / "empty"
        trials.mkdir()
        rc = main(["trial-run", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
                   "--trials", str(trials), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "no trial specs" in capsys.readouterr().err


class TestProvenance:
    def test_every_query_csv_names_its_provenance(self, workspace, tmp_path):
        """Each CSV of the query commands, the trajectory included, leads with
        the config hash, seed and version."""
        model = ["--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"])]
        cohort = ["--cohort", str(workspace["cohort"])]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(DRUG_SPEC), encoding="utf-8")
        trials = tmp_path / "trials"
        trials.mkdir()
        (trials / "t.json").write_text(json.dumps({
            "name": "t", "n": 4, "outcome": "t_target", "horizon_months": 6,
            "table1": [{"modality": "t_target", "mean": 160, "sd": 10, "low": 100, "high": 220}],
            "arms": [{"kind": "scale", "modalities": ["t_target"], "factor": 0.9}],
            "published": {"point": -10.0, "ci_low": -15.0, "ci_high": -5.0},
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        for argv in (
            ["eval-ntp", *model, *cohort, "--report", str(out / "ntp.csv")],
            ["eval-longitudinal", *model, *cohort, "--report", str(out / "long.csv")],
            ["probe-crossmodal", *model, "--input", "x_core", "--output", "y_double", "--out", str(out / "probe.csv")],
            ["simulate", *model, *cohort, "--spec", str(spec), "--out", str(out / "sim.csv"), "--trajectory"],
            ["trial-run", *model, "--trials", str(trials), "--out", str(out / "forest.csv")],
        ):
            assert main(argv) == 0, argv[0]
        written = sorted(p.name for p in out.glob("*.csv"))
        assert written == ["forest.csv", "long.csv", "long.csv.locf.csv", "ntp.csv", "probe.csv",
                           "sim.csv", "sim.csv.trajectory.csv"]
        for name in written:
            leading = itertools.takewhile(lambda line: line.startswith("# "), (out / name).read_text().splitlines())
            assert {"config_hash", "seed", "version"} <= {line[2:].split("=", 1)[0] for line in leading}, name
