"""Corpus ingestion (canonical CSV and whitespace tables) and canonical JSON artifacts."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .acoustic import FormantSet
from .estimate import ScaleEstimate, SpeakerRecord
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
            pattern = re.compile(self.id_regex)
            needed = {"speaker", "vowel"} - set(pattern.groupindex)
            if needed:
                raise ValueError(f"id_regex is missing named groups: {sorted(needed)}")
        if self.skip_lines < 0:
            raise ValueError("skip_lines must be >= 0")

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
        known = {
            "id_column", "vowel_column", "group_column", "formant_columns",
            "id_regex", "group_rule", "missing_sentinel", "skip_lines",
        }
        unknown = set(data) - known
        if unknown:
            raise CorpusError(f"unknown column map keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "formant_columns" in kwargs and kwargs["formant_columns"] is not None:
            kwargs["formant_columns"] = tuple(kwargs["formant_columns"])
        if kwargs.get("group_rule") is not None:
            kwargs["group_rule"] = tuple(sorted(kwargs["group_rule"].items()))
        return cls(**kwargs)

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
    if column_map.group_rule is not None:
        for prefix, label in column_map.group_rule:
            if speaker_id.startswith(prefix):
                return label
        return regex_group
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


def _assemble(rows, column_map: ColumnMap, source: str) -> Corpus:
    """Build a Corpus from (line_no, id_cell, vowel_cell, group_cell, formant_cells)."""
    issues: list[RowIssue] = []
    tokens: dict[str, list[FormantSet]] = {}
    groups: dict[str, str | None] = {}

    for line_no, id_cell, vowel_cell, group_cell, formant_cells in rows:
        if formant_cells is None:
            issues.append(RowIssue(line_no, "row too short for the mapped columns"))
            continue
        speaker_id, id_vowel, id_group = _split_id(column_map, id_cell)
        if speaker_id is None:
            issues.append(RowIssue(line_no, f"id {id_cell!r} does not match id_regex"))
            continue
        if not speaker_id:
            issues.append(RowIssue(line_no, "row has no speaker id"))
            continue
        vowel = vowel_cell if vowel_cell is not None else id_vowel
        if not vowel:
            issues.append(RowIssue(line_no, "row has no vowel label"))
            continue

        values = []
        bad = None
        for cell in formant_cells:
            try:
                values.append(float(cell))
            except (TypeError, ValueError):
                bad = f"non-numeric formant value {cell!r}"
                break
        if bad:
            issues.append(RowIssue(line_no, bad))
            continue
        if any(v == column_map.missing_sentinel for v in values):
            issues.append(
                RowIssue(line_no, f"missing formant (sentinel {column_map.missing_sentinel:g})")
            )
            continue
        arr = np.asarray(values)
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            issues.append(RowIssue(line_no, f"non-positive formant in {values}"))
            continue
        if not np.all(np.diff(arr) > 0):
            issues.append(RowIssue(line_no, f"non-ascending formants {values}"))
            continue

        group = group_cell if group_cell is not None else _group_from_rule(
            column_map, speaker_id, id_group
        )
        tokens.setdefault(speaker_id, []).append(
            FormantSet(speaker_id=speaker_id, vowel=vowel, formants=tuple(values))
        )
        if speaker_id not in groups or groups[speaker_id] in (None, ""):
            groups[speaker_id] = group or None

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
        diagnostics=tuple(issues),
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


def parse_csv(path, column_map: ColumnMap | None = None) -> Corpus:
    """Read a formant corpus from CSV (header row required).

    Without an explicit map the canonical schema is assumed: columns
    ``speaker_id, group, vowel, f1_hz ... fK_hz``. Rows failing validation
    (sentinel formants, non-numeric or non-ascending values) are excluded and
    reported in the corpus diagnostics, in file order.
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
            data = list(reader)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    header = [h.strip() for h in header]
    formant_columns = column_map.formant_columns
    if not formant_columns:
        named = [h for h in header if re.fullmatch(r"f\d+_hz", h)]
        named.sort(key=lambda h: int(h[1:-3]))
        if not named:
            raise CorpusError(f"{path}: no f<N>_hz columns found and none configured")
        formant_columns = tuple(named)

    id_idx = _resolve_column(header, column_map.id_column, path)
    vowel_idx = (
        None
        if column_map.vowel_column is None
        else _resolve_column(header, column_map.vowel_column, path)
    )
    group_idx = None
    if column_map.group_column is not None:
        if isinstance(column_map.group_column, str) and column_map.group_column not in header:
            group_idx = None  # optional column in the canonical schema
        else:
            group_idx = _resolve_column(header, column_map.group_column, path)
    formant_idx = [_resolve_column(header, c, path) for c in formant_columns]

    needed = max([id_idx, *formant_idx, *([vowel_idx] if vowel_idx is not None else [])])

    def rows():
        for offset, cells in enumerate(data):
            line_no = offset + 2  # 1-based, after the header
            if len(cells) <= needed:
                yield line_no, "", None, None, None
                continue
            vowel = cells[vowel_idx].strip() if vowel_idx is not None else None
            group = cells[group_idx].strip() if group_idx is not None else None
            yield (
                line_no,
                cells[id_idx].strip(),
                vowel,
                group,
                [cells[i].strip() for i in formant_idx],
            )

    return _assemble(rows(), column_map, path)


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
    needed = max(column_map.id_column, *column_map.formant_columns)

    def rows():
        for offset, line in enumerate(lines):
            line_no = offset + 1
            if offset < column_map.skip_lines:
                continue
            cells = line.split()
            if not cells:
                continue
            if len(cells) <= needed:
                yield line_no, cells[0], None, None, None
                continue
            vowel = (
                cells[column_map.vowel_column].strip()
                if isinstance(column_map.vowel_column, int)
                else None
            )
            group = (
                cells[column_map.group_column].strip()
                if isinstance(column_map.group_column, int)
                else None
            )
            yield (
                line_no,
                cells[column_map.id_column],
                vowel,
                group,
                [cells[i] for i in column_map.formant_columns],
            )

    return _assemble(rows(), column_map, path)


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


def load_scale_estimate(path) -> ScaleEstimate:
    data = read_json(path)
    try:
        return ScaleEstimate.from_dict(data)
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
