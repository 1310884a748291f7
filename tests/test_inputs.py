"""The input fuzz suite.

From one valid document per input format (a cohort line with its events, a
`simulate` spec, a `trial-run` spec, a training config and a vocabulary) each case changes
one field: it puts a value of another JSON type, NaN, an infinity, a negative,
an empty string or list in its place, or removes it, or it adds an unknown
key.  Then it runs the format's reader or command in-process.  Every run ends
in one of two ways:

- rejected: the command exits 1 with one `error:` line (the reader raises one
  ValueError) that names the key and the file, a rule that a spec object
  keeps for itself (the dosing grid, `low < high`, ...) included, and it
  writes nothing;
- accepted: the run succeeds, and when the change leaves out an optional key
  that held its default, every output equals the valid document's.

The suite decides on its own which changes must be rejected (a JSON type the
field does not take, a required key left out, an unknown key, an empty name,
a number that is not finite or not whole where the format says so), so it
fails when a reader lets one of them through.  The cases are a fixed list.

A last property ties each rule a config or spec dataclass declares to its
readers: breaking the rule when the dataclass is made, and giving the same
value in a file, fail with the same wording.
"""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import trajlm.cli as cli
from trajlm.checkpoint import save_checkpoint
from trajlm.cli import file_sha256, main
from trajlm.corpus import AugmentConfig, read_cohort_jsonl, scan_modalities
from trajlm.intervene import CategoricalAppend, ContinuousScale, EligibilityRule, Published, TrialVariable, read_simulate_spec, read_trial_spec
from trajlm.model import ModelConfig, init_params
from trajlm.objective import LossConfig, TrainConfig, parse_config_file
from trajlm.vocab import FieldError, RawModality, build_vocabulary, load_vocabulary, vocabulary_to_json

UNKNOWN = "zz_unknown"
AT = "2021-03-01T09:00:00"

COHORT_LINE = {
    "id": "p1", "age": 58.5, "sex": "unknown", "visits": [AT, "2023-03-01T09:00:00"],
    "events": [
        {"t": AT, "m": "x_core", "v": 101.5, "sleep": False},
        {"t": "2021-03-01T09:30:00", "m": "medication", "v": "drug_a", "sleep": True},
        {"t": "2023-03-01T09:00:00", "m": "x_core", "v": 99.0, "sleep": False},
    ],
}
SIMULATE_SPEC = {
    "intervention": {"kind": "append", "modality": "medication", "category_index": 0,
                     "frequency": 2, "duration": 6, "label": "medication"},
    "outcome": "t_target", "horizon_months": 12, "seed": 0,
    "eligibility": {"modality": "x_core", "comparator": ">=", "threshold": 50.0},
}
SCALE_SPEC = {**SIMULATE_SPEC, "intervention": {"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "scale"}}
TRIAL_SPEC = {
    "name": "fuzz", "n": 4,
    "table1": [
        {"modality": "age", "mean": 60, "sd": 5, "low": 40, "high": 80},
        {"modality": "x_core", "mean": 100, "sd": 8, "low": 60, "high": 140},
    ],
    "arms": [
        {"kind": "append", "modality": "medication", "category_index": 0, "frequency": 1, "duration": 6, "label": "drug"},
        {"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"},
    ],
    "outcome": "t_target", "horizon_months": 6,
    "published": {"point": -10.0, "ci_low": -15.0, "ci_high": -5.0},
}
CONFIG = {  # every value its key's default (`train` is stood in for, so the model's size costs nothing)
    "n_embd": "768", "n_layers": "14", "n_heads": "2", "d_head": "64", "n_value_extras": "2", "dropout": "0.2",
    "logit_clamp": "50.0", "continuous_pe_base_dim": "512", "max_seq_length": "25000", "lr": "0.0003", "gamma": "0.1",
    "min_lr": "3e-05", "b1": "0.9", "b2": "0.999", "eps": "1e-08", "weight_decay": "0.0", "grad_clip": "0.1",
    "epochs": "18", "batch_size": "1", "warmup_steps": "100", "seed": "42", "val_fraction": "0.2",
    "SL_sigma": "0.01", "soft_labels_scale": "1.0", "mae_loss_scale": "1.0", "split_loss_scale": "1.0",
    "augmentation_chance": "0.1", "augmentation_rate": "0.15", "random_removal_chance": "0.5",
    "random_removal_rate": "0.15", "random_block_removal_chance": "0.2", "random_block_removal_rate": "0.01",
    "random_block_removal_number": "10", "random_modality_subset_chance": "0.1",
    "random_modality_subset_fraction": "0.1", "random_modality_exclusion_chance": "0.05",
}

# What the formats promise, stated here apart from the readers' own tables.
OPTIONAL = {  # format -> key -> its default, or None when the valid document holds another value
    "cohort": {"sex": "unknown", "visits": None, "sleep": None},
    "simulate": {"horizon_months": 12, "seed": 0, "eligibility": None, "label": "medication"},
    "trial": {"n": None, "label": None},
    "vocabulary": {},
}
TAKES_A_STRING_TOO = {"v"}  # an event's value is a number or a category
NON_EMPTY = {"id", "t", "m", "modality", "modalities", "outcome", "kind", "comparator", "arms"}
FINITE = {"age", "v", "mean", "sd", "point", "ci_low", "ci_high", "threshold", "factor", "train_sd"}
WHOLE = {"n", "seed", "horizon_months", "category_index", "frequency", "duration", "cum_base", "total_tokens", "pad_token"}
WHOLE_CONFIG = {
    "n_embd", "n_layers", "n_heads", "d_head", "n_value_extras", "continuous_pe_base_dim", "max_seq_length",
    "epochs", "batch_size", "warmup_steps", "seed", "random_block_removal_number",
}


def kind(value) -> str:
    """A value's JSON type; a list's names its items' types."""
    if isinstance(value, list):
        return "array of " + ",".join(sorted({kind(v) for v in value}))
    return {type(None): "null", bool: "bool", int: "number", float: "number", str: "string", dict: "object"}[type(value)]


def replacements(value) -> list:
    """The values put in place of a field that holds `value`."""
    negative = -(abs(value) + 1) if kind(value) == "number" else -1
    return [None, True, 7, 2.5, "text", "", [], [1], ["text"], {}, math.nan, math.inf, -math.inf, negative]


def must_reject(key: str, old, new) -> bool:
    if new in ("", []) and key in NON_EMPTY:
        return True
    if kind(new) != kind(old) and not (key in TAKES_A_STRING_TOO and kind(new) in ("number", "string")):
        return not (kind(new).startswith("array") and kind(old).startswith("array") and new == [])
    if isinstance(new, float) and not math.isfinite(new) and key in FINITE:
        return True
    return key in WHOLE and isinstance(new, (int, float)) and not (float(new).is_integer() and new >= 0)


def changes(doc: dict, fmt: str, path=()):
    """(description, changed document, key, new value, must it be rejected,
    must outputs equal the valid document's) for every change to `doc` and
    the objects it holds."""
    node = doc
    for step in path:
        node = node[step]
    changed = copy.deepcopy(doc)
    at = changed
    for step in path:
        at = at[step]
    at[UNKNOWN] = 1
    yield f"{path} + {UNKNOWN}", changed, UNKNOWN, 1, True, False
    for key, value in node.items():
        if isinstance(value, dict):
            yield from changes(doc, fmt, (*path, key))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i in range(len(value) if key in ("arms", "table1", "modalities") else 1):
                yield from changes(doc, fmt, (*path, key, i))
        default = OPTIONAL[fmt].get(key, "required")
        for new in [*replacements(value), "removed"]:
            changed = copy.deepcopy(doc)
            at = changed
            for step in path:
                at = at[step]
            if new == "removed":
                del at[key]
                yield f"{path} - {key}", changed, key, new, default == "required", value == default
            else:
                at[key] = new
                yield f"{path}.{key} = {new!r}", changed, key, new, must_reject(key, value, new), False


def names(line: str, key: str) -> bool:
    return key in line or key.replace("_", " ") in line


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """A three-participant synthetic cohort, its vocabulary and an untrained
    tiny model."""
    root = tmp_path_factory.mktemp("inputs")
    cohort, vocab_path = root / "cohort.jsonl", root / "vocab.json"
    assert main(["synth", "--seed", "3", "--participants", "20", "--out", str(cohort), "--vocab-out", str(vocab_path)]) == 0
    small = root / "small.jsonl"
    small.write_text("".join(cohort.read_text(encoding="utf-8").splitlines(keepends=True)[:3]), encoding="utf-8")
    vocab = load_vocabulary(vocab_path)
    config = ModelConfig(vocab.total_tokens, vocab.n_modalities, d_model=8, n_layers=1, n_heads=1, d_head=8,
                         dropout=0.0, cont_pe_dim=8, max_seq_len=64)
    ckpt = root / "model.ckpt"
    save_checkpoint(ckpt, init_params(config, np.random.default_rng(0)), config, file_sha256(vocab_path))
    return {"small": small, "vocab_path": vocab_path, "vocab": vocab, "ckpt": ckpt}


def run(capsys, argv, outputs) -> tuple[str, object]:
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    if rc == 0:
        return "accepted", [Path(o).read_bytes() for o in outputs]
    assert not any(Path(o).exists() for o in outputs), f"exit {rc} left an output behind: {err}"
    return "rejected", err


def check(outcome, case, path, valid_outputs):
    """The suite's property for one case."""
    what, _, key, new, reject, same = case
    result, detail = outcome
    if result == "rejected":
        line = detail.rstrip("\n")
        assert detail.count("\n") == 1 and line.startswith("error: "), f"{what}: {detail!r}"
        # an object left empty is an error naming the first key it lacks
        assert names(line, key) or (new == {} and "has no key" in line), f"{what}: the error does not name {key!r}: {line}"
        assert str(path) in line, f"{what}: the error does not name the file: {line}"
    else:
        assert not reject, f"{what}: accepted"
        assert not same or detail == valid_outputs, f"{what}: leaving out the default changed the outputs"


def write(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def test_cohort_line(desk, tmp_path):
    """Both readers of a cohort file, `read_cohort_jsonl` and `build-vocab`'s
    `scan_modalities`, on one line changed."""
    def read(reader, path):
        try:
            return "accepted", reader(path)
        except ValueError as e:
            return "rejected", f"error: {e}\n"

    readers = (lambda path: read_cohort_jsonl(path, desk["vocab"]), scan_modalities)
    valid = [read(reader, write(tmp_path / "valid.jsonl", COHORT_LINE))[1] for reader in readers]
    for n, case in enumerate(changes(COHORT_LINE, "cohort")):
        path = write(tmp_path / f"c{n}.jsonl", case[1])
        for reader, outputs in zip(readers, valid):
            check(read(reader, path), case, path, outputs)


@pytest.mark.parametrize("spec", [SIMULATE_SPEC, SCALE_SPEC], ids=["append", "scale"])
def test_simulate_spec(desk, tmp_path, capsys, spec):
    def simulate(path, out):
        return run(capsys, ["simulate", "--ckpt", desk["ckpt"], "--vocab", desk["vocab_path"], "--cohort", desk["small"],
                            "--spec", path, "--out", out], [out])

    valid = simulate(write(tmp_path / "valid.json", spec), tmp_path / "valid.csv")
    assert valid[0] == "accepted", valid
    for n, case in enumerate(changes(spec, "simulate")):
        path = write(tmp_path / f"s{n}.json", case[1])
        check(simulate(path, tmp_path / f"s{n}.csv"), case, path, valid[1])


def test_trial_spec(desk, tmp_path, capsys):
    def trial_run(doc, n):
        trials = tmp_path / f"trials{n}"
        trials.mkdir()
        out = tmp_path / f"forest{n}.csv"
        return write(trials / "t.json", doc), run(
            capsys, ["trial-run", "--ckpt", desk["ckpt"], "--vocab", desk["vocab_path"], "--trials", trials, "--out", out], [out]
        )

    valid = trial_run(TRIAL_SPEC, "valid")[1]
    assert valid[0] == "accepted", valid
    for n, case in enumerate(changes(TRIAL_SPEC, "trial")):
        path, outcome = trial_run(case[1], n)
        check(outcome, case, path, valid[1])


def test_training_config(desk, tmp_path, capsys, monkeypatch):
    """`train` reads its config and stops before training: the stand-in for
    training records the configs it was given."""
    given = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: given.append(args[2:6]) or (None, [], math.nan))

    def train(lines, n):
        path = tmp_path / f"t{n}.cfg"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        result, detail = run(capsys, ["train", "--cohort", desk["small"], "--vocab", desk["vocab_path"], "--config", path,
                                      "--out", tmp_path / f"m{n}.ckpt"], [])
        return path, (result, given.pop() if result == "accepted" else detail)

    lines = [f"{key} = {value}" for key, value in CONFIG.items()]
    valid = train(lines, "valid")[1][1]
    cases = [(f"+ {UNKNOWN}", [*lines, f"{UNKNOWN} = 1"], UNKNOWN, "1", True, False)]
    for i, key in enumerate(CONFIG):
        # without min_lr, gamma sets it to 0.1 * lr, a float a hair from 3e-05
        cases.append((f"- {key}", lines[:i] + lines[i + 1:], key, "removed", False, key != "min_lr"))
        cases.append((f"{key} twice", [*lines, lines[i]], key, CONFIG[key], True, False))
        for new in ("abc", "", "nan", "inf", "-inf", "-1", "2.5"):
            must = new in ("abc", "", "nan") or (new == "2.5" and key in WHOLE_CONFIG)
            cases.append((f"{key} = {new}", lines[:i] + [f"{key} = {new}"] + lines[i + 1:], key, new, must, False))
    for n, case in enumerate(cases):
        path, outcome = train(case[1], n)
        check(outcome, case, path, valid)


def test_vocabulary(tmp_path):
    """`load_vocabulary` on a vocabulary of one continuous and one
    categorical modality, every field of each changed."""
    vocab = build_vocabulary([RawModality("x_core", "continuous", values=[1.0, 2.0, 3.0, 5.0, 8.0], bin_count=2),
                              RawModality("medication", "categorical", categories=["drug_a", "drug_b"])])
    doc = json.loads(vocabulary_to_json(vocab))

    def read(path):
        try:
            return "accepted", vocabulary_to_json(load_vocabulary(path))
        except ValueError as e:
            return "rejected", f"error: {e}\n"

    valid = read(write(tmp_path / "valid.json", doc))
    assert valid == ("accepted", vocabulary_to_json(vocab))
    for n, case in enumerate(changes(doc, "vocabulary")):
        path = write(tmp_path / f"v{n}.json", case[1])
        check(read(path), case, path, valid[1])


# Each declared dataclass, with the valid values it is made with, and where
# its fields sit in a file: a config's key=value lines, or the object of a
# spec document that holds them.
DECLARED = [
    (ModelConfig, {"vocab_size": 10, "n_modalities": 2}, "config", None),
    (TrainConfig, {}, "config", None),
    (LossConfig, {}, "config", None),
    (AugmentConfig, {}, "config", None),
    (CategoricalAppend, dict(modality_id=2, category_index=0, frequency=2, duration=6), "simulate", ("intervention",)),
    (ContinuousScale, dict(modality_ids=(0,), factor=0.9), "scale", ("intervention",)),
    (EligibilityRule, dict(modality_id=0, comparator=">=", threshold=50.0), "simulate", ("eligibility",)),
    (TrialVariable, dict(modality="x_core", mean=100.0, sd=8.0, low=60.0, high=140.0), "trial", ("table1", 1)),
    (Published, dict(point=-10.0, ci_low=-15.0, ci_high=-5.0), "trial", ("published",)),
]
CANDIDATES = {  # by a field's type: values that break one rule or another
    "int": [-1, 0, 1, 5], "float": [math.nan, math.inf, -1.0, 0.0, 1.0, 5.0], "str": [">", ""], "list[int]": [[8] * 6],
}


def rule_cases():
    """(dataclass, its valid values, format, place, field, wording, value):
    for each rule each declared field keeps, a value of the field's type
    that passes the field's rules before it and breaks that one."""
    for kind, valid, fmt, place in DECLARED:
        for f in dataclasses.fields(kind):
            rules = f.metadata.get("rules", ())
            for k, (must, ok) in enumerate(rules):
                value = next(v for v in CANDIDATES[f.type] if all(t([v]) for _, t in rules[:k]) and not ok([v]))
                yield pytest.param(kind, valid, fmt, place, f, must, value, id=f"{kind.__name__}.{f.name}-{must}")


@pytest.mark.parametrize("kind, valid, fmt, place, f, must, value", rule_cases())
def test_a_declared_rule_reads_as_it_constructs(desk, tmp_path, kind, valid, fmt, place, f, must, value):
    """Made with the value, the dataclass raises the rule's FieldError naming
    the field; read from a file, the value is an error naming the file, the
    field's key and the same rule."""
    with pytest.raises(FieldError) as made:
        kind(**valid | {f.name: value})
    assert str(made.value).startswith(f"{f.name} must be {must}, got "), str(made.value)
    if f.metadata["key"] is None:
        return  # a size the vocabulary sets, in no file
    key = f.metadata["key"] or f.name
    if fmt == "config":
        path = tmp_path / "t.cfg"
        path.write_text(f"{key} = {value!r}\n", encoding="utf-8")
        with pytest.raises(ValueError) as read:
            cli.build_configs(parse_config_file(path), desk["vocab"])
    else:
        doc = copy.deepcopy({"simulate": SIMULATE_SPEC, "scale": SCALE_SPEC, "trial": TRIAL_SPEC}[fmt])
        at = doc
        for step in place:
            at = at[step]
        at[key] = value
        path = write(tmp_path / "spec.json", doc)
        with pytest.raises(ValueError) as read:
            (read_trial_spec if fmt == "trial" else read_simulate_spec)(path, desk["vocab"])
    assert str(path) in str(read.value) and f"{key!r} must be {must}, got " in str(read.value), str(read.value)


@pytest.mark.parametrize("command, text, key", [
    ("simulate", json.dumps(SIMULATE_SPEC)[:-1] + ', "horizon_months": 3, "seed": 2}', "horizon_months"),
    ("simulate", json.dumps(SIMULATE_SPEC).replace('"label": "medication"', '"label": "a", "label": "b"'), "label"),
    ("trial-run", json.dumps(TRIAL_SPEC).replace('"sd": 8,', '"sd": 8, "sd": 80,'), "sd"),
], ids=["simulate", "simulate-arm", "trial-row"])
def test_a_spec_key_given_twice_is_an_error(desk, tmp_path, capsys, command, text, key):
    """A spec object that gives a key twice once ran on the last of them
    without a word."""
    spec, out = tmp_path / "spec" / "t.json", tmp_path / "out.csv"
    spec.parent.mkdir()
    spec.write_text(text + "\n", encoding="utf-8")
    inputs = ["--cohort", desk["small"], "--spec", spec] if command == "simulate" else ["--trials", spec.parent]
    result, err = run(capsys, [command, "--ckpt", desk["ckpt"], "--vocab", desk["vocab_path"], *inputs, "--out", out], [out])
    assert result == "rejected"
    assert err.startswith("error: ") and err.endswith(f"{str(spec)!r}: {key!r} is given twice\n"), err
