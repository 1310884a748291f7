"""Planted-ground-truth synthetic cohort.

Every participant carries a scalar latent health state; continuous modalities
read it out linearly with known coefficients, noise, and per-year drift, so
cross-modal relationships, longitudinal change, and intervention effects are
all known exactly and can serve as oracles for end-to-end checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .corpus import Event, ParticipantRecord
from .intervene import add_months
from .vocab import CATEGORICAL, CONTINUOUS, RawModality, Vocabulary, build_vocabulary

__all__ = [
    "ModalityPlan",
    "InterventionRule",
    "GeneratorConfig",
    "GroundTruth",
    "default_config",
    "generate",
    "build_synth_vocabulary",
    "save_ground_truth",
    "analytic_cross_correlation",
]


@dataclass
class ModalityPlan:
    name: str
    kind: str = CONTINUOUS
    mean: float = 0.0
    coef: float = 1.0          # loading on the shared latent state
    noise_sd: float = 0.0
    drift: float = 0.0         # units per year, applied from visit 1
    categories: list[str] = field(default_factory=list)
    bin_count: int | None = None


@dataclass
class InterventionRule:
    trigger_modality: str
    trigger_category: int
    target_modality: str
    effect_fraction: float    # multiplicative shift of the post-onset value
    onset_months: float = 0.0
    tokens_per_month: float = 1.0

    def __post_init__(self):
        if not -1.0 < self.effect_fraction < 1.0:
            raise ValueError("effect fraction must be in (-1, 1)")


@dataclass
class GeneratorConfig:
    n_participants: int = 500
    plan: list[ModalityPlan] = field(default_factory=list)
    rules: list[InterventionRule] = field(default_factory=list)
    visit_gap_months: float = 24.0
    treated_fraction: float = 0.5
    first_visit: datetime = datetime(2020, 1, 6, 9, 0)
    exercise_events_per_visit: int = 1
    seed: int = 0


@dataclass
class GroundTruth:
    latents: dict[str, float]
    treated: dict[str, bool]
    plan: list[ModalityPlan]
    rules: list[InterventionRule]
    intervention_deltas: dict[str, dict[str, float]]

    def conditional_slope(self, m_in: str, m_out: str) -> float:
        """d E[out | in = x] / dx implied by the planted linear readouts."""
        pin = next(p for p in self.plan if p.name == m_in)
        pout = next(p for p in self.plan if p.name == m_out)
        denom = pin.coef**2 + pin.noise_sd**2
        return pout.coef * pin.coef / denom

    def conditional_mean(self, m_in: str, m_out: str, x: float) -> float:
        pin = next(p for p in self.plan if p.name == m_in)
        pout = next(p for p in self.plan if p.name == m_out)
        return pout.mean + self.conditional_slope(m_in, m_out) * (x - pin.mean)


def analytic_cross_correlation(a_i: float, s_i: float, a_j: float, s_j: float) -> float:
    """Population correlation between two linear readouts of the same latent."""
    return a_i * a_j / np.sqrt((a_i**2 + s_i**2) * (a_j**2 + s_j**2))


def default_config(n_participants: int = 500, seed: int = 0) -> GeneratorConfig:
    """Desk-scale plan: 12 continuous + 2 categorical modalities, 2 visits.

    Includes a tight linear pair (y = 2x), a noise-heavy drifting modality, an
    intervention target with a planted -20% effect, and a latent-independent
    negative control.
    """
    plan = [
        ModalityPlan("x_core", mean=100.0, coef=10.0, noise_sd=1.0),
        ModalityPlan("y_double", mean=200.0, coef=20.0, noise_sd=2.0),
        ModalityPlan("d_drift", mean=80.0, coef=8.0, noise_sd=8.0, drift=4.0),
        ModalityPlan("t_target", mean=150.0, coef=12.0, noise_sd=1.5),
        # negative control: precisely measured and latent-loaded so its
        # conditional is well pinned by context, but never touched by any
        # intervention rule
        ModalityPlan("b_control", mean=60.0, coef=15.0, noise_sd=1.5),
        ModalityPlan("aux_1", mean=40.0, coef=5.0, noise_sd=2.0),
        ModalityPlan("aux_2", mean=75.0, coef=-6.0, noise_sd=3.0),
        ModalityPlan("aux_3", mean=120.0, coef=9.0, noise_sd=4.0),
        ModalityPlan("aux_4", mean=30.0, coef=3.0, noise_sd=1.0),
        ModalityPlan("aux_5", mean=90.0, coef=-4.0, noise_sd=5.0),
        ModalityPlan("aux_6", mean=55.0, coef=7.0, noise_sd=2.5),
        ModalityPlan("aux_7", mean=10.0, coef=2.0, noise_sd=0.5),
        ModalityPlan("medication", kind=CATEGORICAL, categories=["drug_a", "drug_b"]),
        ModalityPlan("exercise", kind=CATEGORICAL, categories=["running", "walking", "cycling"]),
    ]
    rules = [
        InterventionRule(
            trigger_modality="medication",
            trigger_category=0,
            target_modality="t_target",
            effect_fraction=-0.20,
            onset_months=0.0,
            tokens_per_month=1.0,
        )
    ]
    return GeneratorConfig(n_participants=n_participants, plan=plan, rules=rules, seed=seed)


def generate(config: GeneratorConfig, rng: np.random.Generator):
    """Draw the cohort and its ground truth; reproducible from the generator."""
    plan_by_name = {p.name: p for p in config.plan}
    for rule in config.rules:
        if rule.trigger_modality not in plan_by_name or rule.target_modality not in plan_by_name:
            raise ValueError("intervention rule names an unknown modality")

    mod_ids = {p.name: i for i, p in enumerate(config.plan)}
    n_treated = int(round(config.treated_fraction * config.n_participants))

    records: list[ParticipantRecord] = []
    latents: dict[str, float] = {}
    treated_map: dict[str, bool] = {}
    deltas: dict[str, dict[str, float]] = {}

    gap_years = config.visit_gap_months / 12.0
    v1 = config.first_visit
    v2 = add_months(v1, config.visit_gap_months)

    for i in range(config.n_participants):
        pid = f"p{i:05d}"
        s = float(rng.normal())
        treated = i < n_treated
        age = float(rng.uniform(40.0, 70.0))
        sex = "female" if rng.random() < 0.5 else "male"
        latents[pid] = s
        treated_map[pid] = treated
        deltas[pid] = {}

        events: list[Event] = []
        for visit_idx, (when, dt_years) in enumerate(((v1, 0.0), (v2, gap_years))):
            for p in config.plan:
                if p.kind == CATEGORICAL:
                    continue
                value = p.mean + p.coef * s + p.drift * dt_years + float(rng.normal(0.0, p.noise_sd))
                if visit_idx == 1:
                    for rule in config.rules:
                        if rule.target_modality != p.name or not treated:
                            continue
                        if config.visit_gap_months >= rule.onset_months:
                            deltas[pid][p.name] = rule.effect_fraction * value
                            value = value * (1.0 + rule.effect_fraction)
                events.append(Event(when, mod_ids[p.name], value, False))
            for _ in range(config.exercise_events_per_visit):
                mods = [p for p in config.plan if p.kind == CATEGORICAL and p.name != "medication"]
                if mods:
                    p = mods[int(rng.integers(0, len(mods)))]
                    cat = p.categories[int(rng.integers(0, len(p.categories)))]
                    events.append(Event(when, mod_ids[p.name], cat, False))

        if treated:
            for rule in config.rules:
                trig = plan_by_name[rule.trigger_modality]
                n_tokens = max(1, int(round(rule.tokens_per_month * config.visit_gap_months)))
                spacing = config.visit_gap_months / n_tokens
                for k in range(n_tokens):
                    when = add_months(v1, (k + 1) * spacing * (1.0 - 1e-9))
                    events.append(
                        Event(when, mod_ids[rule.trigger_modality], trig.categories[rule.trigger_category], False)
                    )

        records.append(ParticipantRecord(pid, age, sex, events, [v1, v2]))

    truth = GroundTruth(latents, treated_map, config.plan, config.rules, deltas)
    return records, truth


def build_synth_vocabulary(records: list[ParticipantRecord], config: GeneratorConfig) -> Vocabulary:
    """Fit the tokenizer on the generated cohort's visit-1 values."""
    mod_ids = {p.name: i for i, p in enumerate(config.plan)}
    raw = []
    for p in config.plan:
        if p.kind == CATEGORICAL:
            raw.append(RawModality(p.name, CATEGORICAL, categories=list(p.categories)))
        else:
            values = [
                float(e.value)
                for r in records
                for e in r.events
                if e.modality == mod_ids[p.name]
            ]
            raw.append(RawModality(p.name, CONTINUOUS, values=values, bin_count=p.bin_count))
    return build_vocabulary(raw)


def save_ground_truth(truth: GroundTruth, path) -> None:
    doc = {
        "latents": truth.latents,
        "treated": truth.treated,
        "plan": [
            {
                "name": p.name,
                "kind": p.kind,
                "mean": p.mean,
                "coef": p.coef,
                "noise_sd": p.noise_sd,
                "drift": p.drift,
                "categories": p.categories,
            }
            for p in truth.plan
        ],
        "rules": [
            {
                "trigger_modality": r.trigger_modality,
                "trigger_category": r.trigger_category,
                "target_modality": r.target_modality,
                "effect_fraction": r.effect_fraction,
                "onset_months": r.onset_months,
                "tokens_per_month": r.tokens_per_month,
            }
            for r in truth.rules
        ],
        "intervention_deltas": truth.intervention_deltas,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
