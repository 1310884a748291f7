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
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Callable, NamedTuple

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
    "InputError",
    "FieldError",
    "Must",
    "Key",
    "Table",
    "declared",
    "Checked",
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


# --- input tables ---------------------------------------------------------------
#
# Each input format is a Table: the keys a JSON object may hold, in checking
# order, each with the Key that states its rules as (wording, test) pairs.  A
# test takes all the values one key holds across a list of objects, so a
# cohort file's events are checked as columns.  A dataclass field states its
# rules, its key and its JSON type once, where it is `declared`: `Checked`
# keeps the rules when the dataclass is made, `Table.of` builds the
# dataclass's table, and the training config's reader reads each field by
# its key.


class InputError(ValueError):
    """Input that breaks its format's table; the message names the file
    (and the line, in a cohort or config file) and the key."""


class FieldError(ValueError):
    """A dataclass `field` whose `value` breaks its `rule`."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} must be {rule}, got {value!r}")
        self.field, self.rule, self.value = field, rule, value


class Must:
    """The rules more than one format keeps, as (wording, test) pairs, and
    the makers of tests; a NaN fails every range."""

    @staticmethod
    def of(*types) -> Callable:
        """The test that each value is of one of `types`, the Python types
        `json` reads (so a bool is no number)."""
        allowed = frozenset(types)
        return lambda values: set(map(type, values)) <= allowed

    @staticmethod
    def each(test) -> Callable:
        """The test that each value passes the one-value `test`."""
        return lambda values: all(map(test, values))

    @staticmethod
    def list_of(test) -> Callable:
        """The test that each value is a list whose items pass `test`."""
        return lambda values: all(type(v) is list for v in values) and all(map(test, values))

    @staticmethod
    def unique(seen: set) -> tuple:
        """Values unique in their file: `seen` holds the values of earlier
        checks, and takes these when they pass, so this is its key's last
        rule."""
        return ("unique in its file", lambda values: seen.isdisjoint(values) and len(set(values)) == len(values) and not seen.update(values))

    number = ("a number", of(int, float))
    whole = ("a whole number", of(int))
    string = ("a string", of(str))
    object = ("an object", of(dict))
    objects = ("a list of objects", list_of(of(dict)))
    strings = ("a list of strings", list_of(of(str)))
    numbers = ("a list of numbers", list_of(number[1]))
    non_empty = ("non-empty", all)
    finite = ("finite", lambda values: all(map(math.isfinite, [v for v in values if type(v) is not str])))
    positive = ("positive", each(lambda x: x > 0))
    non_negative = ("non-negative", each(lambda x: x >= 0))
    finite_positive = ("finite and positive", each(lambda x: 0 < x < math.inf))
    finite_non_negative = ("finite and non-negative", each(lambda x: 0 <= x < math.inf))
    fraction = ("in [0, 1)", each(lambda x: 0 <= x < 1))
    at_least_1 = ("at least 1", each(lambda x: x >= 1))


def _show(value) -> str:
    return json.dumps(value, default=repr)


class Key(NamedTuple):
    """A key's rules, (wording, test) pairs checked in order; its default
    (MISSING: every object gives the key); `read`, a (wording, function)
    pair whose function turns each value into what the reader keeps (an
    error in it breaks that wording); the `table` of the object, or of each
    object of the list, the key holds (a dict of Tables picks one by the
    object's "kind"); and `names`, what the objects of a list are called in
    messages when this key names them."""

    rules: tuple = ()
    default: object = MISSING
    read: tuple = ()
    table: dict | None = None
    names: str = ""

    def broken(self, values: list) -> str | None:
        """The wording of the first rule some value breaks, or None; the
        values are read in place."""
        for must, ok in self.rules:
            if not ok(values):
                return must
        if self.read:
            must, read = self.read
            try:
                values[:] = map(read, values)
            except (KeyError, TypeError, ValueError):
                return must
        return None


def declared(*rules, key: str | None = "", json: tuple = (), default=MISSING, factory=MISSING, **walk) -> Field:
    """A dataclass field, with its `default` or default `factory`, and its
    input rules, stated once: `rules`, which `Checked` keeps; the field's
    `key` in a file (its name when empty, no file's when None); and for
    `Table.of`, `json`, the rule of the JSON types a file may give, and
    `walk`'s further Key settings.  A key=value config reads a line by the
    field's type, or by `walk`'s `read`."""
    return field(default=default, default_factory=factory, metadata={"rules": rules, "key": key, "json": json, "walk": walk})


class Checked:
    """A dataclass whose fields are `declared`: making one checks each
    field's rules in field order, and the first rule broken is a
    FieldError naming the field."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for must, ok in f.metadata.get("rules", ()):
                if not ok([value]):
                    raise FieldError(f.name, must, value)


class Table(dict):
    """A format's table: each key an object may hold, with its Key; and
    `make`, when set, which turns each checked object (a dict of its keys'
    values) into what the reader keeps: a FieldError it raises, for a rule
    the object keeps, names the object and the key."""

    make = None

    @classmethod
    def of(cls, kind, make=None, /, **keys) -> "Table":
        """The table of the `declared` dataclass `kind`: in field order, each
        field that declares a JSON type, or that `keys` gives a Key by its
        name (a key whose rules need the vocabulary), under its key; then
        the rest of `keys`.  Each object is made by `make`, else by `kind`
        from its keys' values in order."""
        table = cls()
        for f in fields(kind):
            m = f.metadata
            if f.name in keys or m.get("json"):
                table[m.get("key") or f.name] = keys.pop(f.name, None) or Key((m["json"],), f.default, **m["walk"])
        table.update(keys)
        table.make = make or (lambda doc: kind(*doc.values()))
        return table

    @staticmethod
    def parse(text: str, where: str, hook=None):
        """The JSON document `text`; malformed JSON is an InputError naming `where`."""
        try:
            return json.loads(text, object_pairs_hook=hook)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON in {where}: {e}") from None

    def load(self, path, where: str):
        """The JSON document in the file at `path`, as `loads` reads it."""
        with open(path, encoding="utf-8") as f:
            return self.loads(f.read(), where)

    def loads(self, text: str, where: str):
        """The JSON document `text`, checked and made; an object that gives
        a key twice is an InputError naming the key."""
        def once(pairs: list) -> dict:
            for i, (key, _) in enumerate(pairs):
                if any(k == key for k, _ in pairs[:i]):
                    raise InputError(f"{where}: {key!r} is given twice")
            return dict(pairs)

        return self.check(self.parse(text, where, once), where)

    def check(self, doc, where: str, made_at: str = ""):
        """The object `doc` checked: each key's value as its Key reads it,
        or its default where `doc` lacks it; then made, at `made_at` (else
        `where`).  An object that breaks the table raises InputError naming
        `where` and the key."""
        checked = {key: values[0] for key, values in self.columns([doc], lambda i: where).items()}
        return self.made(checked, made_at or where)

    def made(self, doc: dict, where: str):
        """What `make` makes of the checked object `doc` (`doc` itself
        without a `make`); a FieldError is an InputError naming `where` and
        the key."""
        if self.make is None:
            return doc
        try:
            return self.make(doc)
        except FieldError as e:
            raise InputError(f"{where}: {e.field!r} must be {e.rule}, got {_show(e.value)}") from None

    def columns(self, docs: list, where) -> dict:
        """The objects `docs` checked together, `where(i)` naming the i-th:
        each key's values, one per object.  The objects of every list a key
        holds are checked all at once, and each list comes back as its
        columns."""
        if not Must.object[1](docs):
            i = next(i for i, d in enumerate(docs) if type(d) is not dict)
            raise InputError(f"{where(i)} must be an object, got {_show(docs[i])}")
        out, names = {}, None

        def at(i):
            return where(i) if names is None else f"{where(i)}: {names[0]} {docs[i][names[1]]!r}"

        for key, rule in self.items():
            try:
                given = [d[key] for d in docs]
            except KeyError:
                given = [d[key] for d in docs if key in d]
                if rule.default is MISSING:
                    raise InputError(f"{at(next(i for i, d in enumerate(docs) if key not in d))} has no key {key!r}") from None
            if given and rule.broken(given):
                i, must = next((i, m) for i, d in enumerate(docs) if key in d for m in [rule.broken([d[key]])] if m)
                raise InputError(f"{at(i)}: {key!r} must be {must}, got {_show(docs[i][key])}")
            if len(given) < len(docs):
                kept = iter(given)
                given = [next(kept) if key in d else rule.default for d in docs]
            out[key] = given if rule.table is None else _nested(key, rule.table, given, at)
            if rule.names:
                names = rule.names, key
        extra = set().union(*docs) - self.keys()
        if extra:
            i, key = next((i, k) for i, d in enumerate(docs) for k in d if k in extra)
            raise InputError(f"{at(i)} has unknown key {key!r}: its keys are {', '.join(self)}")
        return out


def _nested(key: str, table: dict, values: list, at) -> list:
    """The objects, and lists of objects, among `values`, the values of
    `key`, checked against `table`, `at(i)` naming the object that holds the
    i-th value; other values (a missing key's default) stay.  A Table that
    makes no objects checks the objects of all the lists at once, and each
    list comes back as its columns.  Otherwise each object is checked (by
    the Table its "kind" picks, in a dict of Tables) and made at its name,
    when a key names it, or at `key`."""
    if isinstance(table, Table) and table.make is None:
        owners = [i for i, v in enumerate(values) if type(v) is list for _ in v]
        cols = table.columns([x for v in values if type(v) is list for x in v], lambda j: at(owners[j]))
        out, end = [], 0
        for v in values:
            if type(v) is list:
                end += len(v)
                v = {k: c[end - len(v) : end] for k, c in cols.items()}
            out.append(v)
        return out

    def one(doc: dict, i: int, place: str):
        t = table
        if not isinstance(t, Table):
            if type(doc.get("kind")) is not str or doc["kind"] not in t:
                raise InputError(f"{at(i)}: 'kind' must be one of {', '.join(t)}, got {_show(doc.get('kind'))}")
            t = t[doc["kind"]]
        name = next((f"{rule.names} {doc.get(k)!r}" for k, rule in t.items() if rule.names), place)
        return t.check(doc, at(i), f"{at(i)}: {name}")

    return [
        [one(d, i, f"{key!r}[{j}]") for j, d in enumerate(v)] if type(v) is list else one(v, i, repr(key)) if type(v) is dict else v
        for i, v in enumerate(values)
    ]


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


def _vocabulary_table() -> Table:
    """The vocabulary file's table; its modalities' names are unique."""
    pairs = ("a list of [low, high] pairs of numbers", Must.list_of(lambda ranges: Must.numbers[1](ranges) and all(len(r) == 2 for r in ranges)))
    modality = Table(
        name=Key((Must.string, Must.non_empty, Must.unique(set())), names="modality"),
        kind=Key((Must.string, (f"{CONTINUOUS!r} or {CATEGORICAL!r}", lambda kinds: set(kinds) <= {CONTINUOUS, CATEGORICAL}))),
        edges=Key((Must.numbers,)),
        midpoints=Key((Must.numbers,)),
        categories=Key((Must.strings, ("without a repeat", Must.each(lambda cats: len(set(cats)) == len(cats))))),
        train_sd=Key((Must.number, Must.finite_positive)),
        quantile_ranges=Key((pairs,)),
        cum_base=Key((Must.whole,)),
    )
    whole = Key((Must.whole,))
    return Table(modalities=Key((Must.objects, Must.non_empty), table=modality), total_tokens=whole, pad_token=whole)


def vocabulary_from_json(text: str, where: str = "vocabulary") -> Vocabulary:
    """The vocabulary `vocabulary_to_json` wrote, checked against its table
    and the rules across keys that the encoder and the loss rely on: each
    modality's `cum_base` is the token count of the modalities before it; a
    continuous modality has midpoints, one more edge, a quantile range per
    midpoint and no categories, a categorical one categories and no bins; and `total_tokens` and
    `pad_token` are the modalities' token count.  A break is an InputError naming `where`, the
    modality and the key."""
    doc = _vocabulary_table().loads(text, where)
    specs, base, cols = [], 0, doc["modalities"]
    for i, m in enumerate(dict(zip(cols, values)) for values in zip(*cols.values())):
        at = f"{where}: modality {m['name']!r}"
        if m["cum_base"] != base:
            raise InputError(f"{at}: 'cum_base' must be {base}, the token count of the modalities before it, got {m['cum_base']}")
        if m["kind"] == CONTINUOUS and len(m["edges"]) != len(m["midpoints"]) + 1:
            raise InputError(f"{at}: 'edges' must be {len(m['midpoints']) + 1} edges, one more than 'midpoints', got {len(m['edges'])} edges")
        if m["kind"] == CONTINUOUS and len(m["quantile_ranges"]) != len(m["midpoints"]):
            raise InputError(f"{at}: 'quantile_ranges' must be {len(m['midpoints'])} pairs, one per midpoint, got {len(m['quantile_ranges'])} pairs")
        tokens, unused = ("midpoints", ("categories",)) if m["kind"] == CONTINUOUS else ("categories", ("edges", "midpoints", "quantile_ranges"))
        if not m[tokens]:
            raise InputError(f"{at}: {tokens!r} must be non-empty for a {m['kind']} modality, got []")
        for key in unused:
            if m[key]:
                raise InputError(f"{at}: {key!r} must be empty for a {m['kind']} modality, got {_show(m[key])}")
        ranges = [tuple(r) for r in m["quantile_ranges"]]
        specs.append(ModalitySpec(i, m["name"], m["kind"], base, m["edges"], m["midpoints"], m["categories"], m["train_sd"], ranges))
        base += specs[-1].n_tokens
    for key in ("total_tokens", "pad_token"):
        if doc[key] != base:
            raise InputError(f"{where}: {key!r} must be {base}, the count of the modalities' 'midpoints' and 'categories', got {doc[key]}")
    return Vocabulary(specs)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocabulary_to_json(vocab))
        f.write("\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as f:
        return vocabulary_from_json(f.read(), f"vocabulary {str(path)!r}")
