"""Global token vocabulary over heterogeneous measurement modalities.

Continuous modalities are discretized into equal-frequency quantile bins,
categorical modalities are enumerated, and all per-modality token ranges are
concatenated into one non-overlapping address space.  External distributions
are mapped into the same space by quantile matching on empirical ranks.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONTINUOUS",
    "CATEGORICAL",
    "ModalitySpec",
    "Vocabulary",
    "RawModality",
    "DegenerateBinsWarning",
    "choose_bin_count",
    "fit_bins",
    "build_vocabulary",
    "encode_value",
    "decode_token",
    "quantile_match",
    "vocabulary_to_json",
    "vocabulary_from_json",
    "save_vocabulary",
    "load_vocabulary",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

MIN_BINS = 2
MAX_BINS = 129


class DegenerateBinsWarning(UserWarning):
    """Raised when quantile edges collapse and the effective bin count shrinks."""


@dataclass
class ModalitySpec:
    """One measurement channel and its slice of the global token space."""

    id: int
    name: str
    kind: str
    cum_base: int
    bin_edges: list[float] = field(default_factory=list)
    midpoints: list[float] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    train_sd: float = 1.0
    quantile_ranges: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_tokens(self) -> int:
        if self.kind == CATEGORICAL:
            return len(self.categories)
        return len(self.midpoints)


@dataclass
class Vocabulary:
    modalities: list[ModalitySpec]

    @property
    def total_tokens(self) -> int:
        return sum(m.n_tokens for m in self.modalities)

    @property
    def pad_token(self) -> int:
        return self.total_tokens

    @property
    def n_modalities(self) -> int:
        return len(self.modalities)

    def __post_init__(self):
        self._by_name = {m.name: m for m in self.modalities}
        self._bases = [m.cum_base for m in self.modalities]

    def modality(self, name: str) -> ModalitySpec:
        """The modality called `name`; any other key, an id included, is a
        KeyError naming it."""
        if not isinstance(name, str):
            raise KeyError(f"a modality is named by a string, got {name!r}")
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown modality {name!r}") from None

    def head_ranges(self, modality_ids):
        """The output-head range of each given modality: int64 (starts,
        widths), and float64 bin midpoints zero-padded to the widest range
        (all zero for a categorical modality), one row per id."""
        mods, inv = np.unique(np.asarray(modality_ids, dtype=np.int64), return_inverse=True)
        specs = [self.modalities[m] for m in mods]
        widths = np.array([spec.n_tokens for spec in specs], dtype=np.int64)
        mids = np.zeros((len(specs), widths.max(initial=0)))
        for u, spec in enumerate(specs):
            if spec.kind == CONTINUOUS:
                mids[u, : spec.n_tokens] = spec.midpoints
        starts = np.array([spec.cum_base for spec in specs], dtype=np.int64)
        return starts[inv], widths[inv], mids[inv]


@dataclass
class RawModality:
    """Build-time definition: training values or a fixed category list."""

    name: str
    kind: str
    values: list[float] | None = None
    categories: list[str] | None = None
    bin_count: int | None = None


def choose_bin_count(
    n_samples: int,
    sd: float,
    override: int | None = None,
    n_distinct: int | None = None,
) -> int:
    """Pick the bin count for a continuous modality.

    sqrt-rule clamped to [2, 129], reduced to the distinct-value count when
    that is smaller; a single distinct value degenerates to one bin.
    """
    if n_samples < 2:
        raise ValueError(f"insufficient data: need at least 2 samples, got {n_samples}")
    if sd < 0:
        raise ValueError(f"standard deviation must be nonnegative, got {sd}")
    if override is not None:
        return int(override)
    k = int(np.clip(round(np.sqrt(n_samples) / 4.0), MIN_BINS, MAX_BINS))
    if n_distinct is not None:
        if n_distinct == 1:
            return 1
        k = min(k, n_distinct)
    return k


def fit_bins(values, k: int):
    """Fit K equal-frequency quantile bins on training values.

    Returns (bin_edges, midpoints, quantile_ranges, train_sd).  Edges carry the
    observed min/max as finite stand-ins for the open-ended boundary bins, so
    every bin has a finite midpoint.  Duplicate quantile edges collapse the
    effective bin count with a warning.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot fit bins on empty values")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite measurement in training values")
    if k < 1:
        raise ValueError(f"bin count must be >= 1, got {k}")

    lo, hi = float(v.min()), float(v.max())
    train_sd = float(v.std())
    if lo == hi:
        warnings.warn(
            f"all {v.size} training values identical ({lo}); single degenerate bin",
            DegenerateBinsWarning,
        )
        return [lo, hi], [lo], [(0.0, 1.0)], 1.0

    probs = np.arange(1, k) / k
    interior = np.quantile(v, probs, method="linear")

    edges = [lo]
    bounds = [0.0]
    for p, e in zip(probs, interior):
        e = float(e)
        if e > edges[-1]:
            edges.append(e)
            bounds.append(float(p))
    if len(edges) < k:
        warnings.warn(
            f"{k - len(edges)} duplicate quantile edges collapsed; effective bins = {len(edges)}",
            DegenerateBinsWarning,
        )
    edges.append(hi)
    bounds.append(1.0)

    midpoints = [(edges[i] + edges[i + 1]) / 2.0 for i in range(len(edges) - 1)]
    quantile_ranges = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    return edges, midpoints, quantile_ranges, train_sd


def build_vocabulary(raw: list[RawModality]) -> Vocabulary:
    """Assemble the global vocabulary from per-modality definitions.

    Modality order is the input order; cumulative offsets are the running sum
    of bin/category counts, so token ranges partition [0, total_tokens).
    """
    if not raw:
        raise ValueError("at least one modality is required")
    names = [r.name for r in raw]
    if len(set(names)) != len(names):
        raise ValueError("modality names must be unique")

    specs = []
    base = 0
    for idx, r in enumerate(raw):
        if r.kind == CONTINUOUS:
            if not r.values:
                raise ValueError(f"continuous modality {r.name!r} has no training values")
            arr = np.asarray(r.values, dtype=float)
            n_distinct = len(np.unique(arr))
            try:
                k = choose_bin_count(arr.size, float(arr.std()), r.bin_count, n_distinct)
            except ValueError as e:
                raise ValueError(f"continuous modality {r.name!r}: {e}") from None
            edges, mids, qranges, sd = fit_bins(arr, k)
            spec = ModalitySpec(
                id=idx,
                name=r.name,
                kind=CONTINUOUS,
                cum_base=base,
                bin_edges=edges,
                midpoints=mids,
                train_sd=sd if sd > 0 else 1.0,
                quantile_ranges=qranges,
            )
        elif r.kind == CATEGORICAL:
            if not r.categories:
                raise ValueError(f"categorical modality {r.name!r} has no categories")
            if len(set(r.categories)) != len(r.categories):
                raise ValueError(f"duplicate categories in modality {r.name!r}")
            spec = ModalitySpec(
                id=idx,
                name=r.name,
                kind=CATEGORICAL,
                cum_base=base,
                categories=list(r.categories),
            )
        else:
            raise ValueError(f"unknown modality kind {r.kind!r}")
        specs.append(spec)
        base += spec.n_tokens
    return Vocabulary(specs)


def encode_value(vocab: Vocabulary, modality_id: int, value) -> int:
    """Map one measurement to its global token id.

    Continuous values outside the training range clip to the boundary bins;
    categorical values must name a known category.
    """
    m = vocab.modalities[modality_id]
    if m.kind == CATEGORICAL:
        try:
            return m.cum_base + m.categories.index(value)
        except ValueError:
            raise ValueError(
                f"unknown category {value!r} for modality {m.name!r}"
            ) from None
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"non-finite measurement for modality {m.name!r}: {value!r}")
    # bisect the interior edges in place, without copying them: bin_edges
    # carries the observed min/max as stand-ins for the open-ended outer bins
    edges = m.bin_edges
    return m.cum_base + bisect.bisect_right(edges, x, 1, len(edges) - 1) - 1


def decode_token(vocab: Vocabulary, token_id: int):
    """Invert a token id to (modality_id, bin_index, midpoint-or-category)."""
    if not 0 <= token_id < vocab.total_tokens:
        raise ValueError(f"non-measurement token {token_id}")
    i = bisect.bisect_right(vocab._bases, token_id) - 1
    m = vocab.modalities[i]
    b = token_id - m.cum_base
    rep = m.categories[b] if m.kind == CATEGORICAL else m.midpoints[b]
    return m.id, b, rep


def _midranks(v: np.ndarray) -> np.ndarray:
    """Average rank (1-based) of each element among its ties."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=float)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def quantile_match(vocab: Vocabulary, modality_id: int, external_values) -> list[int]:
    """Tokenize an external sample by matching empirical quantile ranks.

    Each value's midrank CDF position is located in the modality's training
    quantile ranges; the open-ended boundary bins guarantee every rank lands
    somewhere, so the mapping is total and rank-preserving.
    """
    m = vocab.modalities[modality_id]
    if m.kind != CONTINUOUS:
        raise ValueError(f"quantile matching requires a continuous modality, got {m.name!r}")
    v = np.asarray(external_values, dtype=float)
    if v.size == 0:
        raise ValueError("external values must be nonempty")
    q = (_midranks(v) - 0.5) / v.size
    starts = np.array([r[0] for r in m.quantile_ranges])
    bins = np.clip(np.searchsorted(starts, q, side="right") - 1, 0, len(starts) - 1)
    return [int(m.cum_base + b) for b in bins]


# --- persistence ------------------------------------------------------------
#
# UTF-8 JSON with a fixed field order; floats written with 17 significant
# digits so reloads are bit-exact.


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return json.dumps(x)


def _fmt_list(xs) -> str:
    return "[" + ",".join(_fmt(x) for x in xs) + "]"


def vocabulary_to_json(vocab: Vocabulary) -> str:
    parts = []
    for m in vocab.modalities:
        ranges = "[" + ",".join(_fmt_list(list(r)) for r in m.quantile_ranges) + "]"
        parts.append(
            "{"
            + f'"name":{json.dumps(m.name)},'
            + f'"kind":{json.dumps(m.kind)},'
            + f'"edges":{_fmt_list(m.bin_edges)},'
            + f'"midpoints":{_fmt_list(m.midpoints)},'
            + f'"categories":{json.dumps(m.categories)},'
            + f'"train_sd":{_fmt(m.train_sd)},'
            + f'"quantile_ranges":{ranges},'
            + f'"cum_base":{m.cum_base}'
            + "}"
        )
    return (
        '{"modalities":['
        + ",".join(parts)
        + f'],"total_tokens":{vocab.total_tokens},"pad_token":{vocab.pad_token}}}'
    )


def vocabulary_from_json(text: str, where: str = "vocabulary") -> Vocabulary:
    """The vocabulary `vocabulary_to_json` wrote.  A modality whose token
    range, bins or scale break what the encoder and the loss rely on is a
    ValueError naming `where`, the modality and the key."""
    doc = json.loads(text)
    specs = []
    base = 0
    for i, m in enumerate(doc["modalities"]):
        spec = ModalitySpec(
            id=i,
            name=m["name"],
            kind=m["kind"],
            cum_base=m["cum_base"],
            bin_edges=list(m["edges"]),
            midpoints=list(m["midpoints"]),
            categories=list(m["categories"]),
            train_sd=m["train_sd"],
            quantile_ranges=[tuple(r) for r in m["quantile_ranges"]],
        )
        rules = [  # (key, holds, rule, the value found)
            ("kind", spec.kind in (CONTINUOUS, CATEGORICAL), f"{CONTINUOUS!r} or {CATEGORICAL!r}", json.dumps(spec.kind)),
            ("cum_base", spec.cum_base == base, f"{base}, the token count of the modalities before it", spec.cum_base),
        ]
        if spec.kind == CONTINUOUS:
            sd, n_mids = spec.train_sd, len(spec.midpoints)
            rules += [
                ("train_sd", type(sd) in (int, float) and 0 < sd < math.inf, "finite and positive", json.dumps(sd)),
                ("edges", len(spec.bin_edges) == n_mids + 1, f"{n_mids + 1} edges, one more than 'midpoints'", f"{len(spec.bin_edges)} edges"),
            ]
        for key, holds, rule, found in rules:
            if not holds:
                raise ValueError(f"{where}: modality {spec.name!r}: {key!r} must be {rule}, got {found}")
        specs.append(spec)
        base += spec.n_tokens
    vocab = Vocabulary(specs)
    if vocab.total_tokens != doc["total_tokens"]:
        raise ValueError(
            f"vocabulary token count mismatch: {vocab.total_tokens} != {doc['total_tokens']}"
        )
    return vocab


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocabulary_to_json(vocab))
        f.write("\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as f:
        return vocabulary_from_json(f.read(), f"vocabulary {str(path)!r}")
