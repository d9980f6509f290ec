"""Corpus ingestion (canonical CSV and whitespace tables) and canonical JSON artifacts."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
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
    """Validated speaker records plus parse provenance and diagnostics."""

    records: tuple[SpeakerRecord, ...]
    vowels: tuple[str, ...]
    provenance: dict = field(default_factory=dict)
    diagnostics: tuple[RowIssue, ...] = ()

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return tuple(r.speaker_id for r in self.records)

    def n_tokens(self) -> int:
        return sum(len(r.tokens) for r in self.records)


def _group_from_rule(column_map: ColumnMap, speaker_id: str, regex_group: str | None):
    for prefix, label in column_map.group_rule or ():
        if speaker_id.startswith(prefix):
            return label
    return regex_group


def _split_id(column_map: ColumnMap, token: str):
    """Returns (speaker_id, vowel_or_None, group_or_None) from the id cell."""
    if column_map.id_regex is None:
        return token, None, None
    match = re.match(column_map.id_regex, token)
    if match is None:
        return None, None, None
    parts = match.groupdict()
    group = parts.get("group")
    speaker = (group or "") + parts["speaker"]
    return speaker, parts["vowel"], group


def _non_numeric(cells) -> str:
    """The first cell that ``float()`` rejects."""
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return cell


def _assemble(numbered_cells, columns, column_map: ColumnMap, source: str) -> Corpus:
    """Build a Corpus from the (line_no, cells) of each row, in file order.

    ``columns`` holds the cell index of the id, the vowel (or None), the group
    (or None) and each formant. The string checks and ``float()`` run row by
    row; the rows that pass them form one float block whose masks make the
    numeric checks, so each row is validated once.
    """
    id_idx, vowel_idx, group_idx, formant_idx = columns
    needed = max(i for i in (id_idx, vowel_idx, group_idx, *formant_idx) if i is not None)
    issues: list[RowIssue] = []
    names: dict[str, str] = {}
    kept = []  # (line_no, speaker_id, vowel, group, formants) of the numeric rows
    for line_no, cells in numbered_cells:
        if len(cells) <= needed:
            issues.append(RowIssue(line_no, "row too short for the mapped columns"))
            continue
        id_cell = cells[id_idx].strip()
        speaker_id, id_vowel, id_group = _split_id(column_map, id_cell)
        if speaker_id is None:
            issues.append(RowIssue(line_no, f"id {id_cell!r} does not match id_regex"))
            continue
        if not speaker_id:
            issues.append(RowIssue(line_no, "row has no speaker id"))
            continue
        vowel = cells[vowel_idx].strip() if vowel_idx is not None else id_vowel
        if not vowel:
            issues.append(RowIssue(line_no, "row has no vowel label"))
            continue
        formant_cells = [cells[i].strip() for i in formant_idx]
        try:
            values = tuple(map(float, formant_cells))
        except ValueError:
            bad = _non_numeric(formant_cells)
            issues.append(RowIssue(line_no, f"non-numeric formant value {bad!r}"))
            continue
        group = cells[group_idx].strip() if group_idx is not None else _group_from_rule(
            column_map, speaker_id, id_group
        )
        # one string object per distinct id and vowel, however many tokens share it
        speaker_id, vowel = names.setdefault(speaker_id, speaker_id), names.setdefault(vowel, vowel)
        kept.append((line_no, speaker_id, vowel, group, values))

    block = np.array([row[-1] for row in kept], ndmin=2)  # (1, 0) when no row is kept
    missing = (block == column_map.missing_sentinel).any(axis=1).tolist()
    positive = (np.isfinite(block) & (block > 0)).all(axis=1).tolist()
    ascending = (block[:, 1:] > block[:, :-1]).all(axis=1).tolist()
    tokens: dict[str, list[FormantSet]] = {}
    groups: dict[str, str | None] = {}
    for (line_no, speaker_id, vowel, group, values), is_missing, is_positive, is_ascending in zip(
        kept, missing, positive, ascending
    ):
        if is_missing:
            reason = f"missing formant (sentinel {column_map.missing_sentinel:g})"
        elif not is_positive:
            reason = f"non-positive formant in {list(values)}"
        elif not is_ascending:
            reason = f"non-ascending formants {list(values)}"
        else:
            tokens.setdefault(speaker_id, []).append(FormantSet._trusted(speaker_id, vowel, values))
            if groups.get(speaker_id) is None:
                groups[speaker_id] = group or None
            continue
        issues.append(RowIssue(line_no, reason))

    if not tokens:
        raise CorpusError(f"{source}: no valid rows")

    records = tuple(
        SpeakerRecord(speaker_id=sid, group=groups[sid], tokens=tuple(tokens[sid]))
        for sid in sorted(tokens)
    )
    vowels = tuple(sorted({t.vowel for r in records for t in r.tokens}))
    return Corpus(
        records=records,
        vowels=vowels,
        provenance={"source": source, "column_map_digest": column_map.digest()},
        diagnostics=tuple(sorted(issues, key=lambda issue: issue.line)),  # lines ascend
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


def _numbered_records(reader):
    """(line_no, cells) per csv record. A record's line is the one after the line
    the previous record ended on, so quoted newlines do not shift later lines."""
    end = reader.line_num
    for cells in reader:
        yield end + 1, cells
        end = reader.line_num


def parse_csv(path, column_map: ColumnMap | None = None) -> Corpus:
    """Read a formant corpus from CSV (header row required).

    Without an explicit map the canonical schema is assumed: columns
    ``speaker_id, group, vowel, f1_hz ... fK_hz``. Rows failing validation
    (sentinel formants, non-numeric or non-ascending values) are excluded and
    reported in the corpus diagnostics, in file order, with the line each
    record starts on. The file is read as a stream, once.
    """
    path = str(path)
    column_map = column_map or ColumnMap()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError(f"{path}: empty file, header required") from None
            columns = _csv_columns(header, column_map, path)
            return _assemble(_numbered_records(reader), columns, column_map, path)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CorpusError(f"cannot parse corpus {path}: {exc}") from exc


def parse_table(path, column_map: ColumnMap) -> Corpus:
    """Read a whitespace-separated legacy vowel table.

    The first ``skip_lines`` lines are treated as the file header. After that,
    lines whose id token does not match ``id_regex`` (or that are too short
    for the mapped columns) are skipped with a diagnostic.
    """
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
    numbered_cells = (
        (line_no, cells)
        for line_no, cells in enumerate(map(str.split, lines[skip:]), skip + 1)
        if cells
    )
    return _assemble(numbered_cells, columns, column_map, path)


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


def _canonicalize(value, path="$"):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite float at {path}")
        return float(format(value, _FLOAT_FORMAT))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _canonicalize(value.tolist(), path)
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"non-string key {key!r} at {path}")
            out[key] = _canonicalize(value[key], f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v, f"{path}[{i}]") for i, v in enumerate(value)]
    raise ValueError(f"cannot serialize {type(value).__name__} at {path}")


def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, floats at 9 significant digits."""
    return json.dumps(_canonicalize(data), sort_keys=True, indent=2, allow_nan=False)


def write_bundle(artifact, path) -> None:
    """Write an artifact (a dict or anything with ``to_dict``) as canonical JSON.

    Identical inputs always produce byte-identical files. The text goes to a
    temporary file in the same directory that then replaces ``path``, so
    ``path`` never holds a partly written artifact.
    """
    data = artifact.to_dict() if hasattr(artifact, "to_dict") else artifact
    text = canonical_json(data) + "\n"
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise OSError(f"cannot write bundle {path}: {exc}") from exc


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
    give byte-identical files.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    n_formants = {len(t.formants) for r in records for t in r.tokens}
    if len(n_formants) != 1:
        raise ValueError(f"mixed formant counts {sorted(n_formants)} in canonical CSV")
    count = n_formants.pop()
    header = ["speaker_id", "group", "vowel"] + [f"f{i + 1}_hz" for i in range(count)]
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for record in records:
                for token in record.tokens:
                    writer.writerow(
                        [record.speaker_id, record.group or "", token.vowel]
                        + [format(f, _FLOAT_FORMAT) for f in token.formants]
                    )
    except OSError as exc:
        raise OSError(f"cannot write corpus {path}: {exc}") from exc
