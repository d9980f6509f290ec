"""Corpus ingestion (canonical CSV and whitespace tables) and canonical JSON artifacts."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .acoustic import FormantSet
from .estimate import SpeakerRecord
from .warp import PiecewiseWarp

#: id pattern for legacy vowel tables whose first token is like "m01ae":
#: group letter, speaker number, vowel code.
LEGACY_ID_REGEX = r"^(?P<group>[A-Za-z])(?P<speaker>\d+)(?P<vowel>[A-Za-z]+)$"


class CorpusError(ValueError):
    """The corpus file cannot be turned into usable records."""


@dataclass(frozen=True)
class ColumnMap:
    """How to find speakers, vowels, and formants in a corpus file.

    Columns are header names for CSV input or 0-based token indices for
    whitespace tables. When ``vowel_column`` is None the vowel (and group and
    bare speaker id) are pulled out of the id token with ``id_regex``, which
    must provide named groups ``speaker`` and ``vowel`` (``group`` optional).
    ``group_rule`` maps id prefixes to group labels. Formant cells equal to
    ``missing_sentinel`` mark absent measurements and drop the row.
    """

    id_column: str | int = "speaker_id"
    vowel_column: str | int | None = "vowel"
    group_column: str | int | None = "group"
    formant_columns: tuple = ()
    id_regex: str | None = None
    group_rule: tuple[tuple[str, str], ...] | None = None
    missing_sentinel: float = 0.0
    skip_lines: int = 0

    def __post_init__(self):
        object.__setattr__(self, "formant_columns", tuple(self.formant_columns))
        for key in ("id_column", "vowel_column", "group_column", "formant_columns"):
            value = getattr(self, key)
            if any(isinstance(c, int) and (isinstance(c, bool) or c < 0)
                   for c in (value if key == "formant_columns" else (value,))):
                raise CorpusError(f"column map {key!r} takes names or indices >= 0, got {value!r}")
        if self.group_rule is not None and not isinstance(self.group_rule, tuple):
            object.__setattr__(
                self, "group_rule", tuple(sorted(dict(self.group_rule).items()))
            )
        if len(set(self.formant_columns)) != len(self.formant_columns):
            raise ValueError("formant columns must be distinct")
        if self.vowel_column is None and self.id_regex is None:
            raise ValueError("need either a vowel column or an id_regex with a vowel group")
        if self.id_regex is not None:
            try:
                pattern = re.compile(self.id_regex)
            except re.error as exc:
                raise CorpusError(f"id_regex {self.id_regex!r} does not compile: {exc}") from None
            needed = {"speaker", "vowel"} - set(pattern.groupindex)
            if needed:
                raise ValueError(f"id_regex is missing named groups: {sorted(needed)}")
        if self.skip_lines < 0:
            raise ValueError("skip_lines must be >= 0")
        if not isinstance(self.missing_sentinel, numbers.Real):
            raise ValueError(f"missing_sentinel must be a number, got {self.missing_sentinel!r}")

    @classmethod
    def legacy_table(cls, formant_columns=(2, 3, 4), skip_lines: int = 0,
                     group_rule=None) -> "ColumnMap":
        """Map for whitespace tables with "m01ae"-style first tokens."""
        return cls(
            id_column=0,
            vowel_column=None,
            group_column=None,
            formant_columns=tuple(formant_columns),
            id_regex=LEGACY_ID_REGEX,
            group_rule=group_rule,
            skip_lines=skip_lines,
        )

    def to_dict(self) -> dict:
        return {
            "id_column": self.id_column,
            "vowel_column": self.vowel_column,
            "group_column": self.group_column,
            "formant_columns": list(self.formant_columns),
            "id_regex": self.id_regex,
            "group_rule": None if self.group_rule is None else dict(self.group_rule),
            "missing_sentinel": self.missing_sentinel,
            "skip_lines": self.skip_lines,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnMap":
        if not isinstance(data, dict):
            raise CorpusError(f"a column map must be a JSON object, got {data!r}")

        def column(v):  # a CSV header name or a table token index; a bool is neither
            return type(v) is str or (type(v) is int and v >= 0)

        expected = {  # key: (what its value must be, the check)
            "id_column": ("a column name or index >= 0", column),
            "vowel_column": ("a column name, index >= 0 or null", lambda v: v is None or column(v)),
            "group_column": ("a column name, index >= 0 or null", lambda v: v is None or column(v)),
            "formant_columns": ("a list of column names or indices >= 0",
                                lambda v: type(v) is list and all(map(column, v))),
            "id_regex": ("a regular expression or null", lambda v: v is None or type(v) is str),
            "group_rule": ("an object of strings or null", lambda v: v is None or (
                type(v) is dict and all(type(x) is str for x in v.values()))),
            "missing_sentinel": ("a number", lambda v: type(v) in (int, float)),
            "skip_lines": ("a whole number >= 0", lambda v: type(v) is int and v >= 0),
        }
        unknown = set(data) - set(expected)
        if unknown:
            raise CorpusError(f"unknown column map keys: {sorted(unknown)}")
        for key, value in data.items():
            what, valid = expected[key]
            if not valid(value):
                raise CorpusError(f"column map {key!r} must be {what}, got {value!r}")
        return cls(**data)  # __post_init__ turns the lists and the object into tuples

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


@dataclass(frozen=True)
class RowIssue:
    """One rejected or skipped input row and the reason."""

    line: int
    reason: str


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated tokens as a table, plus parse provenance and diagnostics.

    ``table`` is an ``estimate._token_table`` with sorted speaker ids and
    vowels, its tokens in speaker order and in file order within a speaker.
    ``groups`` holds each speaker's group label or None. ``records`` is a view
    of the table, built on first access.
    """

    table: tuple
    groups: tuple[str | None, ...]
    provenance: dict = field(default_factory=dict)
    diagnostics: tuple[RowIssue, ...] = ()

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return self.table[0]

    @property
    def vowels(self) -> tuple[str, ...]:
        return self.table[1]

    def n_tokens(self) -> int:
        return len(self.table[2])

    @functools.cached_property
    def records(self) -> tuple[SpeakerRecord, ...]:
        ids, vowels, rows, vowel_index, formants = self.table
        tokens = [[] for _ in ids]
        for row, vowel, values in zip(rows.tolist(), vowel_index.tolist(), formants.tolist()):
            tokens[row].append(FormantSet._trusted(ids[row], vowels[vowel], tuple(values)))
        return tuple(map(SpeakerRecord, ids, self.groups, tokens))


def _group_from_rule(column_map: ColumnMap, speaker_id: str, regex_group: str | None):
    for prefix, label in column_map.group_rule or ():
        if speaker_id.startswith(prefix):
            return label
    return regex_group


def _split_ids(id_regex: str, ids):
    """The speaker ids, vowels and groups (or None) that ``id_regex`` finds in
    the ``ids``, as three lists; a speaker id is the group then the speaker.
    All three are None for an id the regex does not match."""
    pattern = re.compile(id_regex)
    grouped = "group" in pattern.groupindex
    speakers, vowels, groups = split = [], [], []
    for match in map(pattern.match, ids):
        group = match["group"] if match and grouped else None
        speakers.append(match and (group or "") + match["speaker"])
        vowels.append(match and match["vowel"])
        groups.append(group)
    return split


def _number(cell):
    """``float(cell)``, or None where ``float()`` rejects the cell."""
    try:
        return float(cell)
    except ValueError:
        return None


def _index(names, kept):
    """The distinct ``names`` of the ``kept`` rows, sorted, and per kept row
    the index of its name among them."""
    code = dict.fromkeys(names, -1)
    distinct = sorted(filter(None, code))  # a kept row's name is never empty
    code.update(zip(distinct, range(len(distinct))))
    present, index = np.unique(
        np.fromiter(map(code.__getitem__, names), int, len(names))[kept], return_inverse=True
    )
    return tuple(distinct[c] for c in present.tolist()), index


def _assemble(lines, rows, columns, column_map: ColumnMap, source: str, cells=None) -> Corpus:
    """Build a Corpus from the cells of each row and the line it starts on.

    ``columns`` holds the cell index of the id, the vowel (or None), the group
    (or None) and each formant. A caller whose rows all have one width may pass
    their ``cells`` column by column instead. The checks run column by column,
    the numeric ones as masks over one float block; a row is looked at on its
    own only once a check rejects it, to name the reason.
    """
    id_idx, vowel_idx, group_idx, formant_idx = columns
    needed = max(i for i in (id_idx, vowel_idx, group_idx, *formant_idx) if i is not None)
    issues = []  # (line, reason) of each row too short for the columns
    if cells is None and min(map(len, rows), default=needed + 1) <= needed:
        issues = [(n, "row too short for the mapped columns")
                  for n, row in zip(lines, rows) if len(row) <= needed]
        lines = [n for n, row in zip(lines, rows) if len(row) > needed]
        rows = [row for row in rows if len(row) > needed]
    cells = list(zip(*rows)) if cells is None else cells  # no wider than the narrowest row
    if not lines or len(cells) <= needed:  # too few given cells: every row is too short
        raise CorpusError(f"{source}: no valid rows")

    ids = list(map(str.strip, cells[id_idx]))
    if column_map.id_regex is None:
        speakers, id_vowels, id_groups = ids, None, [None] * len(ids)
    else:
        speakers, id_vowels, id_groups = _split_ids(column_map.id_regex, ids)
    vowels = id_vowels if vowel_idx is None else list(map(str.strip, cells[vowel_idx]))
    rejected = {}  # row: reason, from the first check that rejects it
    if not (all(speakers) and all(vowels)):
        rejected = {i: f"id {ids[i]!r} does not match id_regex" if speaker is None
                    else "row has no speaker id" if not speaker else "row has no vowel label"
                    for i, (speaker, vowel) in enumerate(zip(speakers, vowels))
                    if not (speaker and vowel)}
    block = np.empty((len(lines), len(formant_idx)))  # NaN where float() fails
    for column, j in enumerate(formant_idx):
        try:
            block[:, column] = np.fromiter(map(float, cells[j]), float, len(lines))
        except ValueError:
            values = list(map(_number, cells[j]))
            block[:, column] = np.array(values, dtype=float)
            for i in (i for i, value in enumerate(values) if value is None):
                # the first formant float() rejects names the row
                rejected.setdefault(i, f"non-numeric formant value {cells[j][i].strip()!r}")

    missing = (block == column_map.missing_sentinel).any(axis=1)
    positive = (np.isfinite(block) & (block > 0)).all(axis=1)
    ascending = (block[:, 1:] > block[:, :-1]).all(axis=1)
    for i in np.flatnonzero(missing | ~positive | ~ascending).tolist():
        if i not in rejected:
            rejected[i] = (
                f"missing formant (sentinel {column_map.missing_sentinel:g})" if missing[i]
                else f"non-positive formant in {block[i].tolist()}" if not positive[i]
                else f"non-ascending formants {block[i].tolist()}"
            )
    keep = np.ones(len(lines), bool)
    keep[list(rejected)] = False
    kept = np.flatnonzero(keep)
    if not kept.size:
        raise CorpusError(f"{source}: no valid rows")

    ids, speaker_rows = _index(speakers, kept)
    vowels, vowel_index = _index(vowels, kept)
    if group_idx is not None:
        row_groups = list(map(str.strip, cells[group_idx]))
    else:
        rule = dict.fromkeys(zip(speakers, id_groups))  # run once per distinct pair
        for pair in rule:
            rule[pair] = pair[0] and _group_from_rule(column_map, *pair)
        row_groups = list(map(rule.__getitem__, zip(speakers, id_groups)))
    # a speaker's group is the first one named on its kept rows: the last to
    # be written, in reverse file order
    named = np.fromiter(map(bool, row_groups), bool, len(lines))[kept]
    first = dict(zip(speaker_rows[named][::-1].tolist(),
                     map(row_groups.__getitem__, kept[named][::-1].tolist())))
    order = np.argsort(speaker_rows, kind="stable")
    issues += [(lines[i], reason) for i, reason in rejected.items()]
    return Corpus(
        (ids, vowels, speaker_rows[order], vowel_index[order], block[kept][order]),
        tuple(map(first.get, range(len(ids)))),
        provenance={"source": source, "column_map_digest": column_map.digest()},
        diagnostics=tuple(RowIssue(*issue) for issue in sorted(issues)),  # lines ascend
    )


def _resolve_column(header: list[str], column, source: str) -> int:
    if isinstance(column, int):
        if not 0 <= column < len(header):
            raise CorpusError(f"{source}: column index {column} out of range")
        return column
    try:
        return header.index(column)
    except ValueError:
        raise CorpusError(f"{source}: column {column!r} not in header {header}") from None


def _csv_columns(header: list[str], column_map: ColumnMap, source: str):
    """The ``columns`` of ``_assemble`` for a CSV file with this header row."""
    header = [h.strip() for h in header]
    formant_columns = column_map.formant_columns
    if not formant_columns:
        named = [h for h in header if re.fullmatch(r"f\d+_hz", h)]
        named.sort(key=lambda h: int(h[1:-3]))
        if not named:
            raise CorpusError(f"{source}: no f<N>_hz columns found and none configured")
        formant_columns = tuple(named)

    id_idx = _resolve_column(header, column_map.id_column, source)
    vowel_idx = group_idx = None
    if column_map.vowel_column is not None:
        vowel_idx = _resolve_column(header, column_map.vowel_column, source)
    group = column_map.group_column  # optional by name, as in the canonical schema
    if group is not None and (not isinstance(group, str) or group in header):
        group_idx = _resolve_column(header, group, source)
    formant_idx = [_resolve_column(header, c, source) for c in formant_columns]
    return id_idx, vowel_idx, group_idx, formant_idx


def parse_csv(path, column_map: ColumnMap | None = None) -> Corpus:
    """Read a formant corpus from CSV (header row required).

    Without an explicit map the canonical schema is assumed: columns
    ``speaker_id, group, vowel, f1_hz ... fK_hz``. Rows failing validation
    (sentinel formants, non-numeric or non-ascending values) are excluded and
    reported in the corpus diagnostics, in file order, with the line each
    record starts on.
    """
    corpus = _read_csv(path, column_map)
    corpus.records  # built here, so that the parse call holds the cost of the records
    return corpus


def parse_table(path, column_map: ColumnMap) -> Corpus:
    """Read a whitespace-separated legacy vowel table.

    The first ``skip_lines`` lines are treated as the file header. After that,
    lines whose id token does not match ``id_regex`` (or that are too short
    for the mapped columns) are skipped with a diagnostic.
    """
    corpus = _read_table(path, column_map)
    corpus.records  # built here, so that the parse call holds the cost of the records
    return corpus


def _read_csv(path, column_map: ColumnMap | None) -> Corpus:
    """``parse_csv`` without building the records view. A text with no ``"``
    or NUL, one kind of line end (``\\n`` or ``\\r\\n``), no blank line, none
    over ``csv.field_size_limit()`` and as many commas on every data line is
    one ``str.split``, sliced into columns; ``csv.reader`` reads other files."""
    path = str(path)
    column_map = column_map or ColumnMap()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
        lines = text.split("\r\n" if "\r" in text else "\n")
        if not lines[-1]:
            lines.pop()  # the last line's terminator
        if (("\r" not in text or text.count("\r") == text.count("\n") == text.count("\r\n"))
                and len(lines) > 1 and '"' not in text and "\0" not in text and all(lines)
                and max(map(len, lines)) <= csv.field_size_limit()
                and len(set(map(str.count, lines[1:], [","] * len(lines)))) == 1):
            columns = _csv_columns(lines[0].split(","), column_map, path)
            cells, width = ",".join(lines[1:]).split(","), lines[1].count(",") + 1
            del text, lines  # the cells copy the text; keeping all three would raise the peak
            cells = [cells[j::width] for j in range(width)]
            return _assemble(range(2, len(cells[0]) + 2), None, columns, column_map, path, cells)
        del text, lines  # csv.reader streams the file again, row by row
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise CorpusError(f"{path}: empty file, header required")
            columns = _csv_columns(header, column_map, path)
            # a record starts on the line after the one the previous record
            # ended on, so quoted newlines do not shift later lines
            lines, rows, end = [], [], reader.line_num
            for cells in reader:
                lines.append(end + 1)
                rows.append(cells)
                end = reader.line_num
            return _assemble(lines, rows, columns, column_map, path)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CorpusError(f"cannot parse corpus {path}: {exc}") from exc


def _read_table(path, column_map: ColumnMap) -> Corpus:
    """``parse_table`` without building the records view."""
    path = str(path)
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    if not isinstance(column_map.id_column, int) or any(
        not isinstance(c, int) for c in column_map.formant_columns
    ):
        raise CorpusError("table parsing needs integer column indices")
    if not column_map.formant_columns:
        raise CorpusError("table parsing needs explicit formant columns")
    columns = (
        column_map.id_column,
        column_map.vowel_column if isinstance(column_map.vowel_column, int) else None,
        column_map.group_column if isinstance(column_map.group_column, int) else None,
        column_map.formant_columns,
    )
    skip = column_map.skip_lines
    rows = list(map(str.split, lines[skip:]))
    numbers = [line_no for line_no, cells in enumerate(rows, skip + 1) if cells]
    return _assemble(numbers, list(filter(None, rows)), columns, column_map, path)


def records_from_tokens(tokens, group: str | None = None) -> tuple[SpeakerRecord, ...]:
    """Group loose FormantSets into per-speaker records, sorted by speaker id."""
    by_speaker: dict[str, list[FormantSet]] = {}
    for token in tokens:
        by_speaker.setdefault(token.speaker_id, []).append(token)
    return tuple(
        SpeakerRecord(speaker_id=sid, group=group, tokens=tuple(by_speaker[sid]))
        for sid in sorted(by_speaker)
    )


# ---------------------------------------------------------------------------
# canonical JSON artifacts

_FLOAT_FORMAT = ".9g"


class _Fault(Exception):
    """A value ``canonical_json`` cannot write; ``path`` leads to it from the level
    it has been raised to."""

    path = ""


def _column(values, indent: str, step=None) -> list[str]:
    """The canonical JSON texts of sibling ``values``, inner lines indented two
    spaces more than ``indent``: values of one type together, else one by one.
    ``step(i)`` is the path step of value i when the values share a parent; a
    column that fails is walked again one by one, to name the first bad value."""
    try:
        if len(set(map(type, values))) == 1:
            return _kind(type(values[0]), values, indent)
        return [text for value in values for text in _kind(type(value), [value], indent)]
    except _Fault:
        if step is None:  # values of many parents: a column above walks them again
            raise
    for i, value in enumerate(values):
        try:
            _kind(type(value), [value], indent)
        except _Fault as fault:
            fault.path = step(i) + fault.path
            raise


def _kind(kind, values, indent: str) -> list[str]:
    """``_column`` of values of one type: lists make one column of their items,
    dicts that share their keys a column per key, each dict one ``%`` template."""
    if issubclass(kind, str):
        return list(map(json.encoder.encode_basestring_ascii, values))
    if kind is type(None) or kind is bool:
        return [json.dumps(value) for value in values]
    if issubclass(kind, (int, np.integer)):
        return list(map(repr, map(int, values)))
    if issubclass(kind, (float, np.floating)):
        if not all(map(math.isfinite, values)):
            raise _Fault("non-finite float")
        # a text with a "." and no exponent is already repr(float(text))
        return [text if "." in text and "e" not in text else repr(float(text))
                for text in map(format, map(float, values), [_FLOAT_FORMAT] * len(values))]
    if issubclass(kind, np.ndarray):
        return _column([value.tolist() for value in values], indent)
    inner = indent + "  "
    if issubclass(kind, (list, tuple)):
        texts = iter(_column([item for value in values for item in value], inner,
                             "[{}]".format if len(values) == 1 else None))
        return [f"[\n{inner}" + f",\n{inner}".join(itertools.islice(texts, n)) + f"\n{indent}]"
                if n else "[]" for n in map(len, values)]
    if not issubclass(kind, dict):
        raise _Fault(f"cannot serialize {kind.__name__}")
    keys = set(map(tuple, values))
    if len(keys) > 1:
        return [_column([value], indent)[0] for value in values]
    keys = keys.pop()
    good = next((p for p, key in enumerate(keys) if not isinstance(key, str)), len(keys))
    flat = [item for value in values for item in value.values()]
    texts = (list(zip(_column(flat[:good], inner, lambda p: "." + keys[p]))) if len(values) == 1
             else [_column(flat[p::len(keys)], inner) for p in range(good)])
    if good < len(keys):
        raise _Fault(f"non-string key {keys[good]!r}")
    names = sorted(range(len(keys)), key=keys.__getitem__)
    template = "".join(f",\n{inner}" + json.encoder.encode_basestring_ascii(keys[p])
                       .replace("%", "%%") + ": %s" for p in names)[1:]
    return (list(map(f"{{{template}\n{indent}}}".__mod__, zip(*(texts[p] for p in names))))
            if keys else ["{}"] * len(values))


def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, floats at 9
    significant digits, non-ASCII escaped. It is the text of
    ``json.dumps(..., sort_keys=True, indent=2)``, made column by column."""
    try:
        return _kind(type(data), [data], "")[0]
    except _Fault as fault:
        raise ValueError(f"{fault} at ${fault.path}") from None


def write_bundle(artifact, path) -> str:
    """Write an artifact (a dict or anything with ``to_dict``) as canonical JSON
    and return the sha256 of its bytes. Identical inputs give byte-identical
    files, written as ``_write_replacing`` writes."""
    data = artifact.to_dict() if hasattr(artifact, "to_dict") else artifact
    encoded = (canonical_json(data) + "\n").encode("ascii")
    _write_replacing(path, "bundle", lambda handle: handle.write(encoded), mode="wb")
    return hashlib.sha256(encoded).hexdigest()


def _write_replacing(path, what: str, write, **options) -> None:
    """Call ``write`` on a temporary file in ``path``'s directory, opened with
    ``options``, that then replaces ``path``, so ``path`` never holds a partly
    written file. The temporary file is removed if anything fails."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, **options) as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {what} {path}: {exc}") from exc
        raise


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path} is not valid JSON: {exc}") from exc


def load_warp(path, extrapolate: bool = False) -> PiecewiseWarp:
    """Load a piecewise warp from a warp document or a scale-estimate bundle."""
    data = read_json(path)
    if "warp" in data and "boundaries_hz" not in data:
        data = data["warp"]
    try:
        return PiecewiseWarp.from_dict(data, extrapolate=extrapolate)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def write_canonical_csv(records, path) -> None:
    """Write speaker records in the canonical CSV schema.

    Columns: ``speaker_id, group, vowel, f1_hz ... fK_hz`` with one row per
    token; formants are formatted at 9 significant digits so identical inputs
    give byte-identical files. The text goes to a temporary file that then
    replaces ``path``, so ``path`` never holds a partly written corpus.
    """
    rows = [(r.speaker_id, r.group or "", t.vowel, *t.formants) for r in records for t in r.tokens]
    if not rows:
        raise ValueError("no records to write")
    widths = set(map(len, rows))
    if len(widths) != 1:
        raise ValueError(f"mixed formant counts {sorted(w - 3 for w in widths)} in canonical CSV")
    _write_csv(path, list(zip(*rows)))


def _write_csv(path, columns) -> None:
    """Write the canonical CSV from its columns (speaker ids, groups, vowels,
    then one column of floats per formant), as ``_write_replacing`` writes."""
    header = ["speaker_id", "group", "vowel", *map("f{}_hz".format, range(1, len(columns) - 2))]
    texts = [list(map(format, column, [_FLOAT_FORMAT] * len(column))) for column in columns[3:]]
    rows = itertools.chain([header], zip(*columns[:3], *texts))
    _write_replacing(path, "corpus", lambda handle: csv.writer(handle).writerows(rows),
                     mode="w", newline="", encoding="utf-8")
