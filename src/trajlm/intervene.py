"""Intervention-conditioned simulation.

Sequences are edited declaratively: categorical token appending on a
frequency/duration dosing grid (medications, exercise) or in-place scaling of
continuous values (diet, CPAP-style event reduction, fibre).  An arm is one
such spec or a tuple of specs given together (A+B), and `apply_intervention`
is the only context edit.  `simulate_cohort` is the only arm simulation:
each participant's eligibility, control, treatment and monthly trajectory
queries go through one query plan, so contexts that extend one another share
a forward pass.  Trial validation samples truncated-normal synthetic
populations, simulates the trial's arms together, and scores direction/CI
concordance against published estimates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import partial

import numpy as np

from .corpus import Event, ParticipantRecord, TokenSequence, assemble_sequence, features_to_datetime, time_features, v1_context
from .evalharness import plan_queries
from .model import ModelConfig
from .numerics import Tensor
from .vocab import CATEGORICAL, CONTINUOUS, Checked, FieldError, Key, ModalitySpec, Must, Table, Vocabulary, declared, encode_value

__all__ = [
    "FREQUENCIES",
    "DURATIONS",
    "CategoricalAppend",
    "ContinuousScale",
    "EligibilityRule",
    "TrialVariable",
    "TrialSpec",
    "ArmResult",
    "SIMULATION_COUNTS",
    "add_months",
    "dosing_schedule",
    "apply_intervention",
    "check_horizon",
    "simulate_cohort",
    "sample_trial_population",
    "concordance",
    "load_trial_spec",
    "read_trial_spec",
    "read_simulate_spec",
    "parse_intervention",
]

FREQUENCIES = (1, 2, 3, 4, 6, 8, 10, 15, 20)
DURATIONS = (1, 2, 3, 4, 6, 9, 12, 18, 24)
MONTH_DAYS = 30.4375
TRIAL_VISIT = datetime(2021, 3, 1, 9, 0)  # the one visit of every synthetic trial participant


def _on_grid(grid: tuple) -> tuple:
    return (f"on the dosing grid {grid}", Must.each(grid.__contains__))


# The spec dataclasses declare their fields' rules and JSON types; the keys
# that name a modality are checked against the vocabulary, by `_spec_tables`.


@dataclass(frozen=True)
class CategoricalAppend(Checked):
    modality_id: int = declared(key="modality")
    category_index: int = declared(json=Must.whole)
    frequency: int = declared(_on_grid(FREQUENCIES), json=Must.whole)
    duration: int = declared(_on_grid(DURATIONS), json=Must.whole)
    label: str = declared(json=Must.string, default="")


@dataclass(frozen=True)
class ContinuousScale(Checked):
    modality_ids: tuple[int, ...] = declared(key="modalities")
    factor: float = declared(Must.finite_positive, json=Must.number)
    label: str = declared(json=Must.string, default="")


InterventionSpec = CategoricalAppend | ContinuousScale
# one spec, or a tuple of specs applied together
Arm = InterventionSpec | tuple[InterventionSpec, ...]


@dataclass(frozen=True)
class EligibilityRule(Checked):
    modality_id: int = declared(key="modality")
    comparator: str = declared(("'>=' or '<='", Must.each((">=", "<=").__contains__)), json=Must.string)
    threshold: float = declared(Must.finite, json=Must.number)

    def satisfied(self, value: float) -> bool:
        return value >= self.threshold if self.comparator == ">=" else value <= self.threshold


@dataclass
class TrialVariable(Checked):
    modality: str
    mean: float = declared(Must.finite, json=Must.number)
    sd: float = declared(Must.finite, Must.non_negative, json=Must.number)
    low: float = declared(json=Must.number)
    high: float = declared(json=Must.number)

    def __post_init__(self):
        super().__post_init__()
        # a NaN fails each rule: it would stall the rejection sampler
        if not self.low < self.high:
            raise FieldError("low", f"below high {self.high!r}", self.low)
        if not _truncnorm_mass(self.mean, self.sd, self.low, self.high) >= 1e-3:
            rule = f"such that N(mean, sd {self.sd!r}) puts at least 0.1% of its mass in [low {self.low!r}, high {self.high!r}]"
            raise FieldError("mean", rule, self.mean)


@dataclass(frozen=True)
class Published(Checked):
    """A trial's published effect: a point estimate inside its 95% CI."""

    point: float = declared(Must.finite, json=Must.number)
    ci_low: float = declared(Must.finite, json=Must.number)
    ci_high: float = declared(Must.finite, json=Must.number)

    def __post_init__(self):
        super().__post_init__()
        if not self.ci_low <= self.point <= self.ci_high:
            raise FieldError("point", f"inside its own CI [ci_low {self.ci_low!r}, ci_high {self.ci_high!r}]", self.point)


_HORIZON = "a whole number of months in [1, 24]"


def check_horizon(months) -> int:
    """A horizon or trajectory length: a whole number of months in [1, 24]."""
    if isinstance(months, bool) or not isinstance(months, (int, np.integer)) or not 1 <= months <= 24:
        raise ValueError(f"horizon must be {_HORIZON}, got {months!r}")
    return int(months)


@dataclass
class TrialSpec(Checked):
    name: str = declared(json=Must.string)
    table1: list[TrialVariable]
    arms: list[InterventionSpec]
    outcome: str
    horizon_months: int = declared(json=(_HORIZON, Must.whole[1]), read=(_HORIZON, check_horizon))
    published_point: float
    published_ci: tuple[float, float]
    n: int = declared(json=("a whole number >= 1", lambda vs: Must.whole[1](vs) and min(vs) >= 1), default=200)

    def __post_init__(self):
        super().__post_init__()
        Published(self.published_point, *self.published_ci)  # keeps the point inside its CI


# How a `simulate` run accounts for every participant it reads: each one is
# dropped at exactly one step or simulated.
SIMULATION_COUNTS = (
    "participants_read",
    "no_visit1_context",
    "missing_rule_modality",
    "excluded_observed",
    "excluded_predicted",
    "simulated",
)


@dataclass
class ArmResult:
    """Row-aligned answers for one arm: the outcome at V1 + horizon on the
    untouched and on the intervened context of each participant."""

    control: np.ndarray
    treatment: np.ndarray
    label: str = ""
    ci: tuple[float, float] | None = None
    participants: list[str] = field(default_factory=list)  # ids, row-aligned with the arrays
    # (participants, months): treated minus control at each trajectory month
    monthly_deltas: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    counts: dict[str, int] = field(default_factory=dict)  # keyed by SIMULATION_COUNTS

    @classmethod
    def merge(cls, parts: list["ArmResult"]) -> "ArmResult":
        """Concatenate consecutive `simulate_cohort` runs of one arm, in order."""
        return cls(
            np.concatenate([p.control for p in parts]),
            np.concatenate([p.treatment for p in parts]),
            parts[0].label,
            None,
            [pid for p in parts for pid in p.participants],
            np.concatenate([p.monthly_deltas for p in parts]),
            {k: sum(p.counts[k] for p in parts) for k in SIMULATION_COUNTS},
        )

    def monthly(self) -> list[tuple[int, float, float]]:
        """(month, mean delta, standard error) for each trajectory month."""
        out = []
        for t, d in enumerate(self.monthly_deltas.T, 1):
            sem = float(d.std(ddof=1) / math.sqrt(len(d))) if len(d) > 1 else 0.0
            out.append((t, float(d.mean()), sem))
        return out

    @property
    def deltas(self) -> np.ndarray:
        return self.treatment - self.control

    @property
    def mean_delta(self) -> float:
        return float(self.deltas.mean())

    @property
    def mean_control(self) -> float:
        return float(self.control.mean())

    @property
    def effect_percent(self) -> float:
        """Unsigned percent change of the treatment mean vs the control mean."""
        return abs(self.signed_percent)

    @property
    def signed_percent(self) -> float:
        mc = self.mean_control
        if mc == 0:
            raise ZeroDivisionError("undefined percent effect: control mean is zero")
        return 100.0 * (float(self.treatment.mean()) - mc) / mc

    def bootstrap_ci(self, rng: np.random.Generator, resamples: int = 1000):
        """Percentile 95% CI of the signed percent effect over participants."""
        n = len(self.control)
        idx = rng.integers(0, n, (resamples, n))  # row i: the draws of the i-th rng.integers(0, n, n)
        mc = self.control[idx].mean(axis=1)
        stats = 100.0 * (self.treatment[idx].mean(axis=1) - mc) / mc
        return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


def add_months(when: datetime, months: float) -> datetime:
    return when + timedelta(days=months * MONTH_DAYS)


def dosing_schedule(spec: CategoricalAppend, start: datetime, vocab: Vocabulary, months: int | None = None):
    """Token/timestamp pairs for a dosing course of the spec's duration, or of
    `months` months when given: frequency tokens a month, spaced 1/frequency
    months apart, starting one spacing after `start`."""
    m = vocab.modalities[spec.modality_id]
    _check_dose(spec, m)
    token = m.cum_base + spec.category_index
    spacing = 1.0 / spec.frequency
    n_tokens = spec.frequency * (spec.duration if months is None else months)
    return [(add_months(start, (k + 1) * spacing), token) for k in range(n_tokens)]


def _check_dose(spec: CategoricalAppend, m: ModalitySpec) -> None:
    """A dose is a category of a categorical modality `m`, else a
    FieldError names the key."""
    if m.kind != CATEGORICAL:
        raise FieldError("modality", "a categorical modality", m.name)
    if not 0 <= spec.category_index < m.n_tokens:
        raise FieldError("category_index", f"an index into {m.name!r}'s {m.n_tokens} categories", spec.category_index)


def _sequence_end_time(seq: TokenSequence) -> datetime:
    """The time of the sequence's last event."""
    return features_to_datetime(seq.times[seq.length - 1])


def _specs(arm: Arm) -> tuple[InterventionSpec, ...]:
    return arm if isinstance(arm, tuple) else (arm,)


def _check_scale_conflicts(specs: tuple[InterventionSpec, ...]) -> None:
    seen: set[int] = set()
    for spec in specs:
        if isinstance(spec, ContinuousScale):
            shared = seen & set(spec.modality_ids)
            if shared:
                raise ValueError(f"conflicting continuous-scale targets: {sorted(shared)}")
            seen |= set(spec.modality_ids)


def _scale(seq: TokenSequence, spec: ContinuousScale, vocab: Vocabulary) -> TokenSequence:
    out = seq.copy()
    targets = set(spec.modality_ids)
    for m in targets:
        if vocab.modalities[m].kind != CONTINUOUS:
            raise ValueError(f"cannot scale categorical modality {vocab.modalities[m].name!r}")
    for i in range(out.length):
        m = int(out.modalities[i])
        if m in targets:
            new_val = out.values[i] * spec.factor
            out.values[i] = new_val
            out.tokens[i] = encode_value(vocab, m, new_val)
    out.check()
    return out


def apply_intervention(seq: TokenSequence, arm: Arm, vocab: Vocabulary, months: int | None = None) -> TokenSequence:
    """The visit-1 context `seq` with every spec of the arm applied; `seq` is
    left as is.

    Continuous edits apply in turn; every dosing course starts at the
    context's last event, whichever spec it comes from, and lasts its own
    duration, or `months` months when given.  The doses of every course
    follow the context in (time, modality, token) order, so its own events
    keep their positions.  Streams stay synchronized and token/value
    consistent.  A sequence that holds a second visit is a ValueError.
    """
    if seq.visit_boundary < seq.length:
        raise ValueError(f"an intervention edits a visit-1 context, got a second visit from position {seq.visit_boundary}")
    specs = _specs(arm)
    _check_scale_conflicts(specs)
    start = _sequence_end_time(seq)
    out, doses = seq, []
    for spec in specs:
        if isinstance(spec, CategoricalAppend):
            doses += [(when, spec.modality_id, token) for when, token in dosing_schedule(spec, start, vocab, months)]
        elif isinstance(spec, ContinuousScale):
            out = _scale(out, spec, vocab)
        else:
            raise TypeError(f"unknown intervention spec: {spec!r}")
    return _append_doses(out, sorted(doses)) if doses else out


def _append_doses(seq: TokenSequence, doses: list[tuple[datetime, int, int]]) -> TokenSequence:
    """The sequence followed by the (time, modality, token) dose events in
    the order given; the query slot keeps its modality and takes the last
    dose's time."""
    t, n = seq.length, len(doses)
    tokens = np.concatenate([seq.tokens, np.array([token for _, _, token in doses], dtype=np.int64)])
    values = np.concatenate([seq.values, np.zeros(n)])
    mods = np.concatenate([seq.modalities[:t], [m for _, m, _ in doses], seq.modalities[-1:]])
    times = np.empty((t + n + 1, 7), dtype=np.int64)
    times[:t] = seq.times[:t]
    times[t:-1] = [time_features(when) for when, _, _ in doses]
    times[-1] = times[-2]
    out = TokenSequence(tokens, values, mods, times, t + n)
    out.check()
    return out


def _check_outcome(vocab: Vocabulary, outcome_modality: int) -> None:
    if vocab.modalities[outcome_modality].kind != CONTINUOUS:
        raise ValueError("outcome modality must be continuous")


def _treated_contexts(seq: TokenSequence, arm: Arm, vocab: Vocabulary, months: int):
    """The intervened visit-1 context at the horizon, then after each month
    t in 1..`months`.  Every month's context is cut from one context whose
    courses last `months` months, so each is a prefix of it: month t holds
    the edited visit-1 content and t * frequency doses of each course (a
    pure scale doses nothing, so its cut is the whole edited context).  When
    every course already lasts `months` months, that context is the horizon
    context too and is built once."""
    if not months:
        return [apply_intervention(seq, arm, vocab)]
    course = apply_intervention(seq, arm, vocab, months)
    dosing = [spec for spec in _specs(arm) if isinstance(spec, CategoricalAppend)]
    horizon = course if all(spec.duration == months for spec in dosing) else apply_intervention(seq, arm, vocab)
    per_month = sum(spec.frequency for spec in dosing)
    return [horizon, *(course.take(np.arange(seq.length + t * per_month)) for t in range(1, months + 1))]


def _simulate_participant(params, config, vocab, rec, arm, outcome_modality, horizon_months, months, rule):
    """Answer one participant's `simulate` requests with one plan_queries call.

    The requests are the eligibility query (the rule's modality at V1 +
    horizon, given a rule), the control and treated outcome at V1 + horizon
    and the control and dosed outcome at each of months 1..`months`.  Every
    month's treated context is cut from one course, so for a dosing-only arm
    all of them and the control context share one pass.  Returns
    (exclusion, answers): exclusion is the SIMULATION_COUNTS key that drops
    the participant, or None, and answers are the control then the treated
    outcomes, horizon first.
    """
    ctx = v1_context(rec)
    if not ctx.events:
        return "no_visit1_context", None
    if rule is not None:
        observed = [e.value for e in ctx.events if e.modality == rule.modality_id]
        if not observed:
            return "missing_rule_modality", None
        if not rule.satisfied(float(observed[-1])):
            return "excluded_observed", None
    seq = assemble_sequence(ctx, vocab, config.max_seq_len)
    end = _sequence_end_time(seq)
    whens = [add_months(end, t) for t in (horizon_months, *range(1, months + 1))]
    requests = [] if rule is None else [(seq, rule.modality_id, whens[0])]
    requests += [(seq, outcome_modality, w) for w in whens]
    requests += [(c, outcome_modality, w) for c, w in zip(_treated_contexts(seq, arm, vocab, months), whens)]
    answers = plan_queries(params, config, vocab, rec.age, rec.sex, requests)
    if rule is not None and not rule.satisfied(answers.pop(0)):
        return "excluded_predicted", None
    return None, answers


def simulate_cohort(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    records: list[ParticipantRecord],
    arm: Arm,
    outcome_modality: int,
    horizon_months: int,
    months: int = 0,
    rule: EligibilityRule | None = None,
) -> ArmResult:
    """Screen, simulate and trace each participant in one query plan.

    With a rule, a participant is kept only if both the observed V1 value and
    the control prediction of the rule's modality at V1 + horizon satisfy it.
    Each kept participant gets the paired control/treatment outcome at V1 +
    horizon (the untouched V1 context against the same context with the arm
    applied: one spec, or a tuple of specs given together) and, for `months`
    > 0, the treated-minus-control outcome at each of months 1..months, where
    dosing at month t covers V1 through t and continuous edits apply in full.
    """
    _check_scale_conflicts(_specs(arm))
    _check_outcome(vocab, outcome_modality)
    check_horizon(horizon_months)
    if months:
        check_horizon(months)
    counts = dict.fromkeys(SIMULATION_COUNTS, 0)
    counts["participants_read"] = len(records)
    pids, rows = [], []
    for rec in records:
        exclusion, answers = _simulate_participant(
            params, config, vocab, rec, arm, outcome_modality, horizon_months, months, rule
        )
        counts[exclusion or "simulated"] += 1
        if exclusion is None:
            pids.append(rec.participant_id)
            rows.append(answers)
    control, treated = np.array(rows, dtype=np.float64).reshape(len(rows), 2, 1 + months).transpose(1, 0, 2)
    label = "+".join(spec.label for spec in _specs(arm))
    return ArmResult(control[:, 0].copy(), treated[:, 0].copy(), label, None, pids, treated[:, 1:] - control[:, 1:], counts)


def _truncnorm_mass(mean: float, sd: float, low: float, high: float) -> float:
    if sd == 0:
        return 1.0 if low <= mean <= high else 0.0
    a = (low - mean) / sd
    b = (high - mean) / sd
    return 0.5 * (math.erf(b / math.sqrt(2)) - math.erf(a / math.sqrt(2)))


def sample_trial_population(trial: TrialSpec, rng: np.random.Generator, vocab: Vocabulary) -> list[ParticipantRecord]:
    """Draw a synthetic single-visit cohort matching the trial's baseline table,
    every participant measured at TRIAL_VISIT.

    Each variable is a truncated normal realized by rejection sampling; a
    table row named 'age' (absent from the vocabulary) sets chronological age.
    """
    age_var = None
    measured: list[TrialVariable] = []
    for var in trial.table1:
        if var.modality.lower() == "age" and var.modality not in {m.name for m in vocab.modalities}:
            age_var = var
        else:
            measured.append(var)

    def draw(var: TrialVariable) -> float:
        if var.sd == 0:
            return var.mean
        while True:
            x = rng.normal(var.mean, var.sd)
            if var.low <= x <= var.high:
                return x

    records = []
    for i in range(trial.n):
        age = draw(age_var) if age_var is not None else 55.0
        sex = "female" if i % 2 == 0 else "male"
        events = [
            Event(TRIAL_VISIT, vocab.modality(var.modality).id, draw(var), False)
            for var in measured
        ]
        records.append(
            ParticipantRecord(f"{trial.name}-{i:04d}", age, sex, events, [TRIAL_VISIT])
        )
    return records


def concordance(rows: list[dict]) -> dict:
    """Score predicted effects against published (point, 95% CI) references.

    A direction hit needs matching nonzero signs; a CI hit needs the predicted
    point inside the published interval.  sign(0) never matches, and a value
    that is not finite is an error naming its row.
    """
    scored = []
    direction = 0
    ci = 0
    for i, row in enumerate(rows):
        pred, pub, lo, hi = (float(row[k]) for k in ("predicted", "published", "ci_low", "ci_high"))
        if not all(map(math.isfinite, (pred, pub, lo, hi))):
            name = row.get("trial", row.get("label", i))
            raise ValueError(f"concordance row {name!r}: predicted {pred}, published {pub} [{lo}, {hi}] must be finite")
        dir_hit = math.copysign(1, pred) == math.copysign(1, pub) and pred != 0 and pub != 0
        ci_hit = lo <= pred <= hi
        direction += int(dir_hit)
        ci += int(ci_hit)
        scored.append({**row, "direction_hit": dir_hit, "ci_hit": ci_hit})
    return {"n": len(rows), "direction_hits": direction, "ci_hits": ci, "rows": scored}


def _spec_tables(vocab: Vocabulary) -> tuple[Table, Table]:
    """The `simulate` and `trial-run` spec tables, whose modality keys name
    a modality of `vocab`."""
    ids = {m.name: m.id for m in vocab.modalities}
    continuous = {m.name for m in vocab.modalities if m.kind == CONTINUOUS}
    modality = Key((Must.string, ("a modality name", lambda vs: set(vs) <= ids.keys())))
    outcome = Key((Must.string, ("a continuous modality name", lambda vs: set(vs) <= continuous)))
    make_arm, kind = partial(parse_intervention, vocab=vocab), Key((Must.string,))
    modalities = Key((Must.strings, Must.non_empty, ("a list of modality names", lambda vs: set().union(*vs) <= ids.keys())))
    arm = {
        "append": Table.of(CategoricalAppend, make_arm, kind=kind, modality_id=modality),
        "scale": Table.of(ContinuousScale, make_arm, kind=kind, modality_ids=modalities),
    }
    arms = Key((Must.objects,), table=arm)
    rule = Table.of(EligibilityRule, lambda d: EligibilityRule(ids[d["modality"]], d["comparator"], float(d["threshold"])), modality_id=modality)
    row = Key((Must.string, ("a modality name or age", lambda vs: all(v in ids or v.lower() == "age" for v in vs))), names="table-1 row")
    published = Table.of(Published, lambda d: Published(*map(float, d.values())))
    trial = Table.of(
        TrialSpec, _make_trial, outcome=outcome, arms=arms, table1=Key((Must.objects,), table=Table.of(TrialVariable, modality=row)),
        published=Key((Must.object,), table=published),
    )
    simulate = Table(
        intervention=Key((Must.object,), table=arm),
        outcome=outcome,
        horizon_months=trial["horizon_months"]._replace(default=12),
        seed=Key((("a whole number >= 0", lambda vs: Must.whole[1](vs) and min(vs) >= 0),), None),
        eligibility=Key((Must.object,), None, table=rule),
    )
    return simulate, trial


def _make_trial(doc: dict) -> TrialSpec:
    """The TrialSpec a checked trial spec describes; it has 1 or 2 arms."""
    if len(doc["arms"]) not in (1, 2):
        raise FieldError("arms", "a list of 1 or 2 arms", len(doc["arms"]))
    p = doc["published"]
    return TrialSpec(doc["name"], doc["table1"], doc["arms"], doc["outcome"], doc["horizon_months"], p.point, (p.ci_low, p.ci_high), doc["n"])


def read_simulate_spec(path, vocab: Vocabulary) -> dict:
    """The `simulate` spec file at `path`, checked: each key's value, the
    intervention as its arm and the eligibility as its rule (the seed and
    the rule None when absent)."""
    return _spec_tables(vocab)[0].load(path, f"intervention spec {str(path)!r}")


def read_trial_spec(path, vocab: Vocabulary) -> TrialSpec:
    """The trial spec file at `path`, checked, as a TrialSpec."""
    return _spec_tables(vocab)[1].load(path, f"trial spec {os.path.basename(path)} {str(path)!r}")


def load_trial_spec(doc: dict, vocab: Vocabulary) -> TrialSpec:
    """A trial description, checked, as a TrialSpec."""
    return _spec_tables(vocab)[1].check(doc, "trial spec")


def parse_intervention(doc: dict, vocab: Vocabulary) -> InterventionSpec:
    """The spec an arm object of a checked spec describes; an arm without a
    label is called by its modality (an append) or "scale".  An append
    doses a category of a categorical modality and a scale edits
    continuous ones, else a FieldError names the key."""
    if doc["kind"] == "append":
        m = vocab.modality(doc["modality"])
        spec = CategoricalAppend(m.id, doc["category_index"], doc["frequency"], doc["duration"], doc["label"] or m.name)
        _check_dose(spec, m)
        return spec
    targets = [vocab.modality(name) for name in doc["modalities"]]
    if any(m.kind != CONTINUOUS for m in targets):
        raise FieldError("modalities", "continuous modalities", doc["modalities"])
    return ContinuousScale(tuple(m.id for m in targets), float(doc["factor"]), doc["label"] or "scale")
