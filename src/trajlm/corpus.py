"""Participant event streams and their assembly into synchronized tensors.

Each participant's measurements become four lockstep streams (token id,
continuous value, modality id, 7-dim time vector), chronologically sorted with
a fixed secondary sort by modality index.  The modality/time streams carry one
trailing entry so the position after the last token can hold a query.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .vocab import CATEGORICAL, CONTINUOUS, Checked, InputError, Key, Must, RawModality, Table, Vocabulary, declared, encode_value

__all__ = [
    "Event",
    "ParticipantRecord",
    "TokenSequence",
    "AugmentConfig",
    "TEMPORAL_VOCAB_SIZES",
    "SEX_INDEX",
    "time_features",
    "features_to_datetime",
    "v1_context",
    "assemble_sequence",
    "augment",
    "read_cohort_jsonl",
    "scan_modalities",
    "write_cohort_jsonl",
]

# Sizes of the seven per-dimension time embedding tables:
# [day_of_week, hour, minute, month, year, day_of_month, sleep]
TEMPORAL_VOCAB_SIZES = [8, 25, 61, 13, 147, 32, 2]
YEAR_BASE = 1900
N_YEARS = TEMPORAL_VOCAB_SIZES[4]

SEX_INDEX = {"female": 0, "male": 1, "unknown": 2}


@dataclass
class Event:
    timestamp: datetime
    modality: int
    value: float | str
    sleep_flag: bool = False


@dataclass
class ParticipantRecord:
    participant_id: str
    age: float
    sex: str
    events: list[Event] = field(default_factory=list)
    visit_timestamps: list[datetime] = field(default_factory=list)


@dataclass
class TokenSequence:
    """Synchronized streams for one participant.

    tokens/values have length T; modalities/times have length T + 1, the extra
    slot holding the query for the position after the last token.
    """

    tokens: np.ndarray
    values: np.ndarray
    modalities: np.ndarray
    times: np.ndarray
    visit_boundary: int

    @property
    def length(self) -> int:
        return int(self.tokens.shape[0])

    def check(self) -> None:
        """Raise ValueError naming the first stream out of step with tokens."""
        t = self.length
        for name, shape in (("values", (t,)), ("modalities", (t + 1,)), ("times", (t + 1, 7))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for {t} tokens")
        if not 0 <= self.visit_boundary <= t:
            raise ValueError(f"visit_boundary {self.visit_boundary} outside [0, {t}]")

    def take(self, idx) -> "TokenSequence":
        """The streams at the kept positions `idx` (ascending), as a sequence
        of their own.  Its query slot keeps this sequence's modality and
        takes the time of the last kept position, as `assemble_sequence`
        sets it (this one's when nothing is kept); its visit boundary is the
        number of kept positions before this one's."""
        idx = np.asarray(idx, dtype=np.int64)
        last = idx[-1] if len(idx) else -1
        return TokenSequence(
            self.tokens[idx],
            self.values[idx],
            np.append(self.modalities[idx], self.modalities[-1]),
            np.concatenate([self.times[idx], self.times[last][None]]),
            int(np.sum(idx < self.visit_boundary)),
        )

    def copy(self) -> "TokenSequence":
        return TokenSequence(
            self.tokens.copy(),
            self.values.copy(),
            self.modalities.copy(),
            self.times.copy(),
            self.visit_boundary,
        )


def _whole(text: str) -> int:
    """A whole number, which may be written as a float ("10.0")."""
    x = float(text)
    if not x.is_integer():
        raise ValueError(text)
    return int(x)


_UNIT = ("in [0, 1]", Must.each(lambda x: 0 <= x <= 1))


@dataclass
class AugmentConfig(Checked):
    noise_chance: float = declared(_UNIT, key="augmentation_chance", default=0.10)
    noise_rate: float = declared(_UNIT, key="augmentation_rate", default=0.15)
    token_removal_chance: float = declared(_UNIT, key="random_removal_chance", default=0.50)
    token_removal_rate: float = declared(_UNIT, key="random_removal_rate", default=0.15)
    block_removal_chance: float = declared(_UNIT, key="random_block_removal_chance", default=0.20)
    block_removal_rate: float = declared(_UNIT, key="random_block_removal_rate", default=0.01)
    block_removal_blocks: int = declared(
        ("at least 0", Must.each(lambda x: x >= 0)), key="random_block_removal_number", default=10,
        read=(Must.whole[0], _whole),
    )
    modality_subset_chance: float = declared(_UNIT, key="random_modality_subset_chance", default=0.10)
    modality_subset_fraction: float = declared(_UNIT, key="random_modality_subset_fraction", default=0.10)
    modality_exclusion_chance: float = declared(_UNIT, key="random_modality_exclusion_chance", default=0.05)

    @classmethod
    def disabled(cls) -> "AugmentConfig":
        return cls(
            noise_chance=0.0,
            token_removal_chance=0.0,
            block_removal_chance=0.0,
            modality_subset_chance=0.0,
            modality_exclusion_chance=0.0,
        )


def time_features(ts: datetime, sleep_flag: bool = False) -> list[int]:
    """Encode a timestamp as [dow, hour, minute, month, year_index, dom, sleep]."""
    yi = ts.year - YEAR_BASE
    if not 0 <= yi < N_YEARS:
        raise ValueError(
            f"year {ts.year} outside the {N_YEARS}-entry table starting at {YEAR_BASE}"
        )
    return [ts.weekday(), ts.hour, ts.minute, ts.month, yi, ts.day, int(bool(sleep_flag))]


def features_to_datetime(vec) -> datetime:
    """Reconstruct the calendar timestamp from a 7-dim time vector."""
    _, hour, minute, month, yi, dom, _ = (int(x) for x in vec)
    return datetime(YEAR_BASE + yi, month, dom, hour, minute)


def v1_context(record: ParticipantRecord) -> ParticipantRecord:
    """The record cut to its first visit: events before the second visit's
    timestamp; a record with fewer than two visits is returned unchanged."""
    if len(record.visit_timestamps) < 2:
        return record
    v2 = record.visit_timestamps[1]
    return ParticipantRecord(
        record.participant_id,
        record.age,
        record.sex,
        [e for e in record.events if e.timestamp < v2],
        record.visit_timestamps[:1],
    )


def assemble_sequence(
    record: ParticipantRecord,
    vocab: Vocabulary,
    max_len: int = 25_000,
) -> TokenSequence:
    """Sort, encode, and truncate one participant's events into streams.

    Truncation keeps the earliest tokens so visit-1 context survives.  The
    trailing modality/time slot is initialized to the pad modality and the
    last timestamp; callers overwrite it with a real query.
    """
    def sort_key(ev: Event):
        # timestamp then modality per the contract; value/sleep break residual
        # ties so assembly is invariant to input permutation
        return ev.timestamp, ev.modality, repr(ev.value), ev.sleep_flag

    events = sorted(record.events, key=sort_key)[:max_len]
    t = len(events)

    tokens = np.zeros(t, dtype=np.int64)
    values = np.zeros(t, dtype=np.float64)
    mods = np.full(t + 1, vocab.n_modalities, dtype=np.int64)
    times = np.zeros((t + 1, 7), dtype=np.int64)

    for i, ev in enumerate(events):
        spec = vocab.modalities[ev.modality]
        try:
            tokens[i] = encode_value(vocab, ev.modality, ev.value)
        except (TypeError, ValueError) as e:
            raise ValueError(
                f"participant {record.participant_id!r}: cannot encode event "
                f"({ev.timestamp.isoformat()}, {spec.name!r}, {ev.value!r}): {e}"
            ) from e
        values[i] = float(ev.value) if spec.kind == CONTINUOUS else 0.0
        mods[i] = ev.modality
        times[i] = time_features(ev.timestamp, ev.sleep_flag)

    if t > 0:
        times[t] = times[t - 1]
    elif record.visit_timestamps:
        times[t] = time_features(record.visit_timestamps[0])
    else:
        times[t] = time_features(datetime(YEAR_BASE, 1, 1))

    boundary = t
    if len(record.visit_timestamps) >= 2:
        v2 = record.visit_timestamps[1]
        boundary = next((i for i, ev in enumerate(events) if ev.timestamp >= v2), t)

    seq = TokenSequence(tokens, values, mods, times, boundary)
    seq.check()
    return seq


def augment(
    seq: TokenSequence,
    config: AugmentConfig,
    rng: np.random.Generator,
    vocab: Vocabulary,
) -> TokenSequence:
    """Apply the five stochastic training augmentations in a fixed order.

    Each augmentation fires on an independent draw.  Streams stay synchronized
    after every removal, and noisy continuous values are re-binned so token and
    value never disagree.
    """
    out = seq.copy()

    if rng.random() < config.noise_chance and out.length > 0:
        for i in range(out.length):
            m = int(out.modalities[i])
            spec = vocab.modalities[m]
            if spec.kind != CONTINUOUS:
                continue
            noisy = out.values[i] + rng.normal(0.0, config.noise_rate * spec.train_sd)
            out.values[i] = noisy
            out.tokens[i] = encode_value(vocab, m, noisy)

    if rng.random() < config.token_removal_chance and out.length > 0:
        keep = rng.random(out.length) >= config.token_removal_rate
        out = out.take(np.flatnonzero(keep))

    if rng.random() < config.block_removal_chance and out.length > 0:
        drop = np.zeros(out.length, dtype=bool)
        block = max(1, int(round(config.block_removal_rate * out.length)))
        for _ in range(config.block_removal_blocks):
            start = int(rng.integers(0, out.length))
            drop[start : start + block] = True
        out = out.take(np.flatnonzero(~drop))

    if rng.random() < config.modality_subset_chance and out.length > 0:
        present = np.unique(out.modalities[: out.length])
        n_keep = max(1, int(round(config.modality_subset_fraction * len(present))))
        chosen = set(rng.choice(present, size=n_keep, replace=False).tolist())
        keep = np.array([m in chosen for m in out.modalities[: out.length]])
        out = out.take(np.flatnonzero(keep))

    if rng.random() < config.modality_exclusion_chance and out.length > 0:
        present = np.unique(out.modalities[: out.length])
        excluded = int(rng.choice(present))
        keep = out.modalities[: out.length] != excluded
        out = out.take(np.flatnonzero(keep))

    out.check()
    return out


# --- cohort I/O ---------------------------------------------------------------
#
# One participant per JSON line:
# {"id":str,"age":num,"sex":"female|male|unknown","visits":[iso8601...],
#  "events":[{"t":iso8601,"m":modality-name,"v":num|str,"sleep":bool}]}


def write_cohort_jsonl(records: list[ParticipantRecord], vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for r in records:
            doc = {
                "id": r.participant_id,
                "age": r.age,
                "sex": r.sex,
                "visits": [v.isoformat() for v in r.visit_timestamps],
                "events": [
                    {
                        "t": e.timestamp.isoformat(),
                        "m": vocab.modalities[e.modality].name,
                        "v": e.value,
                        "sleep": e.sleep_flag,
                    }
                    for e in r.events
                ],
            }
            f.write(json.dumps(doc, separators=(",", ":")))
            f.write("\n")


def _cohort_table(ids: dict | None) -> Table:
    """A cohort line's table.  `ids` maps each modality name an event may
    give to the id the reader keeps; None admits any name and keeps it."""
    iso, dates, is_str = datetime.fromisoformat, "a list of ISO date-time strings", Must.string[1]
    event = Table(
        m=Key(
            (("a modality name", is_str), Must.non_empty),
            read=() if ids is None else ("a modality of the vocabulary", ids.__getitem__), names="event",
        ),
        t=Key(read=("an ISO date-time string", iso)),
        v=Key((("a number or a string", Must.of(int, float, str)), Must.finite)),
        sleep=Key((("true or false", Must.of(bool)),), False),
    )
    return Table(
        id=Key((Must.string, Must.non_empty, Must.unique(set()))),
        age=Key((Must.number, Must.finite)),
        sex=Key(((f"one of {', '.join(SEX_INDEX)}", lambda vs: is_str(vs) and set(vs) <= SEX_INDEX.keys()),), "unknown"),
        visits=Key(((dates, Must.list_of(is_str)),), [], read=(dates, lambda visits: list(map(iso, visits)))),
        events=Key((Must.objects,), table=event),
    )


def _cohort_chunks(path, ids: dict | None):
    """(wheres, columns) for each chunk of up to 32 lines of the cohort file
    at `path`, checked against the cohort table together: `wheres` names
    each line, and a line's events come as columns.  Checking a chunk's
    events all at once keeps the read near a bare parse's time; a chunk's
    parsed lines are held together, so chunks stay small."""
    table = _cohort_table(ids)
    with open(path, encoding="utf-8") as f:
        lines = ((f"{path}:{n}", line) for n, line in enumerate(f, 1) if line.strip())
        while chunk := list(itertools.islice(lines, 32)):
            wheres = [where for where, _ in chunk]
            yield wheres, table.columns([Table.parse(line, where) for where, line in chunk], wheres.__getitem__)


def read_cohort_jsonl(path, vocab: Vocabulary) -> list[ParticipantRecord]:
    records = []
    for _, c in _cohort_chunks(path, {m.name: m.id for m in vocab.modalities}):
        for pid, age, sex, visits, ev in zip(c["id"], c["age"], c["sex"], c["visits"], c["events"]):
            events = list(map(Event, ev["t"], ev["m"], ev["v"], ev["sleep"]))
            records.append(ParticipantRecord(pid, float(age), sex, events, list(visits)))
    return records


def scan_modalities(path) -> list[RawModality]:
    """The modalities of a raw cohort file, in first-seen order: numeric
    values make a modality continuous, string values categorical (its
    categories in first-seen order)."""
    kinds: dict[str, str] = {}
    seen: dict[str, list] = {}  # a continuous modality's values, a categorical one's categories
    for wheres, c in _cohort_chunks(path, None):
        for where, ev in zip(wheres, c["events"]):
            for name, v in zip(ev["m"], ev["v"]):
                kind = CATEGORICAL if type(v) is str else CONTINUOUS
                if kinds.setdefault(name, kind) != kind:
                    must = "a number" if kinds[name] == CONTINUOUS else "a string"
                    raise InputError(f"{where}: event {name!r}: 'v' must be {must}, as the modality is {kinds[name]}, got {json.dumps(v)}")
                values = seen.setdefault(name, [])
                if kind == CONTINUOUS:
                    values.append(float(v))
                elif v not in values:
                    values.append(v)
    return [
        RawModality(name, kind, values=seen[name]) if kind == CONTINUOUS
        else RawModality(name, kind, categories=seen[name])
        for name, kind in kinds.items()
    ]
