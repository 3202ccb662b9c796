"""PPG record/reference file I/O and a deterministic synthetic PPG generator.

File formats
------------
PPG CSV        header ``t,ppg``; ``t`` in seconds, strictly increasing with a
               uniform step (tolerance 1e-6 of the step); UTF-8 with or
               without a BOM, LF or CRLF. Error line numbers count the
               provenance comment and blank lines.
Reference CSV  header ``t,rr``; ``t`` in seconds, ``rr`` in breaths/min.
Record JSON    object with ``id``, ``fs``, ``samples`` and an optional
               ``reference`` object holding ``t`` and ``rr`` arrays.

CapnoBase note: the benchmark recordings are not redistributed here. Export
each recording to the PPG CSV format above (one row per sample) and the
capnography-derived reference to the reference CSV to run the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, RrcifError, ValidationError

# Uniform-step tolerance for PPG CSV timestamps, relative to the step itself.
STEP_TOLERANCE = 1e-6

# Bounds on a synthetic record, checked before anything is allocated.
SYNTH_MAX_SAMPLES = 2**26
SYNTH_MAX_BEATS = 2**20

# The suffixes by which np.loadtxt, given a path, decompresses the file.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _median(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """``np.median`` along a non-empty ``axis``, computed as it computes it:
    the mean of the middle value, or of the two middle values, of a
    partition; NaN where any value is NaN. ``np.median`` itself loads
    ``numpy.ma``.
    """
    size = values.shape[axis]
    high = size // 2
    low = high if size % 2 else high - 1
    part = np.partition(values, [low, high, -1], axis=axis)  # NaN sorts last
    middle = np.mean(np.take(part, range(low, high + 1), axis=axis), axis=axis)
    return np.where(np.isnan(np.take(part, -1, axis=axis)), np.nan, middle)


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``, which a later write to ``a`` cannot reach."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PpgRecord:
    """A uniformly sampled PPG waveform.

    The record holds its own read-only copy of the samples it is given, so
    a later write to the caller's array does not reach it.
    """

    id: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _readonly(self.samples))
        if self.samples.ndim != 1:
            raise ValidationError(f"record {self.id!r}: samples must be 1-D, got shape {self.samples.shape}")
        if not 0 < self.fs < math.inf:
            raise ValidationError(f"record {self.id!r}: fs must be finite and > 0, got {self.fs}")
        if self.samples.size == 0:
            raise ValidationError(f"record {self.id!r}: no samples")
        if not np.all(np.isfinite(self.samples)):
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise ValidationError(f"record {self.id!r}: non-finite sample at index {bad}")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fs


@dataclass(frozen=True)
class ReferenceRr:
    """Reference respiratory rate annotations (e.g. from capnography).

    The reference holds its own read-only copies of the arrays it is given,
    so a later write to the caller's arrays does not reach it.
    """

    times_s: np.ndarray
    rr: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times_s", _readonly(self.times_s))
        object.__setattr__(self, "rr", _readonly(self.rr))
        if self.times_s.ndim != 1 or self.rr.ndim != 1:
            raise ValidationError("reference: t and rr must be 1-D")
        if self.times_s.size != self.rr.size:
            raise ValidationError("reference: t and rr lengths differ")
        if self.times_s.size == 0:
            raise ValidationError("reference: empty")
        if not np.all(np.isfinite(self.times_s)):
            bad = int(np.flatnonzero(~np.isfinite(self.times_s))[0])
            raise ValidationError(f"reference: non-finite timestamp at row {bad}")
        decreasing = self.times_s[1:] < self.times_s[:-1]  # np.diff could overflow
        if np.any(decreasing):
            bad = int(np.flatnonzero(decreasing)[0]) + 1
            raise ValidationError(f"reference: decreasing timestamp at row {bad}")
        if np.any(self.times_s < 0):
            raise ValidationError("reference: negative timestamp")
        if np.any((self.rr <= 0) | (self.rr >= 120)) or not np.all(np.isfinite(self.rr)):
            raise ValidationError("reference: rr values must lie in (0, 120) breaths/min")


@dataclass(frozen=True)
class ModDepths:
    """Per-variation modulation depths for the synthetic generator, each in
    [0, 1] except frequency, in [0, 1): at frequency depth 1 the periods
    before a trough of the modulator shrink toward 0, so the beats would
    never reach the end of the record."""

    intensity: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    width: float = 0.0
    slope: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"depth {name} must be in [0, 1], got {v}")
        if self.frequency == 1.0:
            raise ValidationError("depth frequency must be in [0, 1), got 1.0")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for :func:`synthesize`.

    ``noise_sd`` is the standard deviation of additive white Gaussian noise
    relative to the nominal pulse amplitude. ``hr`` must be at least twice
    ``rr`` so the beat sequence samples the respiratory modulation without
    aliasing.
    """

    rr: float
    hr: float
    duration_s: float = 480.0
    fs: float = 100.0
    depths: ModDepths = field(default_factory=ModDepths)
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 4.0 <= self.rr <= 65.0:
            raise ValidationError(f"rr must lie in [4, 65], got {self.rr}")
        if not 2.0 * self.rr < self.hr < math.inf:
            raise ValidationError(
                f"hr must be finite and exceed 2*rr so beats sample the modulation, got hr={self.hr} rr={self.rr}"
            )
        if not (0 < self.duration_s < math.inf and 0 < self.fs < math.inf):
            raise ValidationError(f"duration_s and fs must be finite and positive, got {self.duration_s} and {self.fs}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValidationError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        n_samples = self.duration_s * self.fs  # synthesize() makes round(n_samples)
        if n_samples == math.inf or round(n_samples) > SYNTH_MAX_SAMPLES:
            raise ValidationError(f"duration_s * fs must give at most {SYNTH_MAX_SAMPLES} samples, got {n_samples:g}")
        n_beats = self.duration_s * self.hr / 60.0
        shortest = 1.0 - self.depths.frequency  # no period is shorter than shortest * 60 / hr
        if n_beats > SYNTH_MAX_BEATS * shortest:
            raise ValidationError(
                f"duration_s * hr / 60 / (1 - frequency depth) must give at most {SYNTH_MAX_BEATS} beats, "
                f"got {n_beats:g} / {shortest:g}"
            )


# ---------------------------------------------------------------------------
# readers / writers


def _read_header(reader, path, expected_header):
    """Consume the provenance comments and the header row of a ``csv.reader``.

    Lines starting with '#' before the header are provenance comments and skipped.
    """
    header = None
    for row in reader:
        if row and row[0].lstrip().startswith("#"):
            continue
        header = row
        break
    if header is None:
        raise ParseError(f"{path}: empty file")
    got = [h.strip().lower() for h in header]
    if got != list(expected_header):
        raise ParseError(f"{path}: line {reader.line_num}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}")


def _rows(reader, path, n_fields, increasing) -> list[list[float]]:
    """Parse the rest of a ``csv.reader`` as rows of ``n_fields`` floats.

    Line numbers are lines of the text, so comment and blank lines count; a
    row whose quoted field holds a line break is named by its last line. A
    non-finite value in the first column raises :class:`ValidationError`
    naming its line; with ``increasing``, so does the first one that does not
    exceed the one before, once every row has parsed.
    """
    rows, not_increasing = [], 0
    for row in reader:
        line_no = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_fields:
            raise ParseError(f"{path}: line {line_no}: expected {n_fields} fields, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise ParseError(f"{path}: line {line_no}: non-numeric field in {row!r}") from None
        if not math.isfinite(values[0]):
            raise ValidationError(f"{path}: line {line_no}: non-finite timestamp {values[0]}")
        if increasing and rows and values[0] <= rows[-1][0]:
            not_increasing = not_increasing or line_no
        rows.append(values)
    if not_increasing:
        raise ValidationError(f"{path}: line {not_increasing}: timestamps not strictly increasing")
    return rows


def _read_columns(path, expected_header, increasing=False) -> np.ndarray:
    """Return the rows of a two-column CSV as an (n, 2) array.

    A regular file whose suffix loadtxt does not take for a compression
    format is parsed by :func:`_parse_columns` from the open file and its
    path; anything else (a pipe, say) is read whole first and parsed from
    that text. A byte that is not UTF-8 anywhere in the file outranks every
    other error, in either route.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and path.suffix not in _COMPRESSED_SUFFIXES:
                # absolute, so never taken for a URL
                reader, source = csv.reader(fh), os.path.abspath(path)
            else:
                text = fh.read()
                reader, source = csv.reader(io.StringIO(text, newline="")), io.StringIO(text, newline="")
            try:
                return _parse_columns(reader, source, path, expected_header, increasing)
            except RrcifError:
                fh.read()  # decodes what the reader has not reached
                raise
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _parse_columns(reader, source, path, expected_header, increasing) -> np.ndarray:
    """Read the header with ``reader``, then the body with one ``np.loadtxt``
    call on ``source``, a path or the text that ``reader`` reads.

    Whatever that call rejects or cannot be trusted with (a parse error, an
    empty body, another column count, a non-finite timestamp, with
    ``increasing`` one that does not increase) is parsed by :func:`_rows` from
    the same reader, which accepts the same files and raises the errors that
    name a line.
    """
    n_fields = len(expected_header)
    try:
        _read_header(reader, path, expected_header)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns, rather than fails, on an empty body
                data = np.loadtxt(
                    source, delimiter=",", comments=None, ndmin=2, skiprows=reader.line_num, encoding="utf-8-sig"
                )
        except (ValueError, Warning):
            data = None
        if (
            data is not None
            and data.shape[0] >= 1
            and data.shape[1] == n_fields
            and np.isfinite(data[:, 0]).all()
            and not (increasing and np.any(data[1:, 0] <= data[:-1, 0]))
        ):
            return data
        rows = _rows(reader, path, n_fields, increasing)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, n_fields)


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}")


def read_record(path) -> PpgRecord:
    """Load a PPG recording from a ``t,ppg`` CSV or, by its ``.json`` suffix,
    a record JSON file, whose ``reference`` is not read.

    Raises :class:`ParseError` for malformed files and :class:`ValidationError`
    for structurally valid files with out-of-contract content.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _read_json(path)[0]

    data = _read_columns(path, ("t", "ppg"), increasing=True)
    if data.shape[0] < 2:
        raise ValidationError(f"{path}: need at least 2 samples, got {data.shape[0]}")
    with np.errstate(over="ignore"):  # a step past the float range is rejected below
        dt = np.diff(data[:, 0])
        step = float(_median(dt))
    if not math.isfinite(step):
        raise ValidationError(f"{path}: timestamp step {step} is not finite")
    if np.max(np.abs(dt - step)) > STEP_TOLERANCE * step:
        raise ValidationError(f"{path}: non-uniform sampling (step {step:g} s, max deviation {np.max(np.abs(dt - step)):g} s)")
    return PpgRecord(id=path.stem, fs=1.0 / step, samples=data[:, 1])


def read_subject(path) -> tuple[str, Callable[[], tuple[PpgRecord, ReferenceRr]]]:
    """A subject's record id and a function that loads its record, as
    :func:`read_record` does, and its checked reference: a record JSON's
    embedded ``reference``, or the CSV at :func:`reference_path`. A CSV's id is
    its stem; a record JSON is parsed here, once, and a record that fails raises."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        return path.stem, lambda: (read_record(path), _reference_beside(path))
    record, ref = _read_json(path)
    return record.id, lambda: (record, _embedded_reference(path, ref))


def list_subjects(directory) -> list[Path]:
    """A dataset directory's subject files in name order: each ``.json``, and each
    ``.csv`` that is not the :func:`reference_path` of another (suffixes in any
    case), so a reference without its record is read, and fails, as one."""
    files = sorted(Path(directory).glob("*"))
    references = {reference_path(p) for p in files if p.suffix.lower() == ".csv"}
    return [p for p in files if p.suffix.lower() in (".csv", ".json") and p not in references]


def _reference_beside(path) -> ReferenceRr:
    ref_path = reference_path(path)
    if not ref_path.exists():
        raise RrcifError(f"{path}: no matching {ref_path.name} reference")
    return read_reference(ref_path)


def _embedded_reference(path, ref) -> ReferenceRr:
    if ref is None:
        raise RrcifError(f"{path}: JSON record has no embedded reference")
    if not isinstance(ref, dict) or "t" not in ref or "rr" not in ref:
        raise ParseError(f"{path}: reference must hold 't' and 'rr' arrays")
    return ReferenceRr(_json_floats(path, ref["t"]), _json_floats(path, ref["rr"]))


def reference_path(path: Path) -> Path:
    """Where a record CSV's reference sits: beside it, as ``<stem>_ref<suffix>``."""
    return path.with_name(path.stem + "_ref" + path.suffix)


def _read_json(path) -> tuple[PpgRecord, object]:
    """A record JSON's record and its unchecked ``reference`` value, None when absent."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except (RecursionError, ValueError) as exc:  # a JSONDecodeError, too deep a nesting, too long an integer
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for key in ("id", "fs", "samples"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    fs = _json_floats(path, obj["fs"])
    if fs.ndim != 0:
        raise ParseError(f"{path}: fs must be a number")
    return PpgRecord(id=str(obj["id"]), fs=float(fs), samples=_json_floats(path, obj["samples"])), obj.get("reference")


def _json_floats(path, value) -> np.ndarray:
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, (str, bool)):  # np.asarray would read "2e0" and true as numbers
            raise ParseError(f"{path}: non-numeric value: {json.dumps(item)}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: non-numeric value: {exc}") from None


def read_reference(path) -> ReferenceRr:
    """Load a ``t,rr`` reference CSV."""
    data = _read_columns(Path(path), ("t", "rr"))
    if data.shape[0] == 0:
        raise ValidationError(f"{path}: reference has no rows")
    return ReferenceRr(data[:, 0], data[:, 1])


def write_record(record: PpgRecord, path, comment: str | None = None) -> None:
    """Write a record as CSV, or as JSON for a ``.json`` path; round-trips
    samples exactly."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"id": record.id, "fs": record.fs, "samples": [float(v) for v in record.samples]}, fh)
            fh.write("\n")
        return
    _write_rows(path, "t,ppg", (np.arange(record.samples.size) / record.fs).tolist(), record.samples.tolist(), comment)


def write_reference(reference: ReferenceRr, path, comment: str | None = None) -> None:
    _write_rows(path, "t,rr", reference.times_s.tolist(), reference.rr.tolist(), comment)


def _write_rows(path, header, first, second, comment):
    """Write an optional ``# comment`` line, the header and one ``repr`` row per pair of values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"{header}\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# synthetic generator

# Pulse geometry relative to the nominal beat period.
_RISE_FRACTION = 0.3    # foot-to-peak duration
_WIDTH_FRACTION = 0.25  # width at 50% amplitude
_BLEND_LEVEL = 0.1      # fraction of amplitude where the decay hands over to the
                        # inter-beat blend; must stay below 0.5 so the half-width
                        # crossing happens on the pure exponential
_PEAK_LEVEL = 1.0       # nominal peak value
_AMPLITUDE = 1.0        # nominal foot-to-peak amplitude


def synthesize(spec: SynthSpec) -> tuple[PpgRecord, ReferenceRr]:
    """Generate a synthetic PPG with known per-feature respiratory modulation.

    Each beat is a raised-cosine upstroke followed by an exponential decay,
    written in one pass over the beats: the upstroke from the beat's onset
    (from t = 0 for the first beat) to its peak, then the decay up to the next
    beat's onset or the end of the record. The five beat features that
    downstream stages measure (peak value, foot-to-peak amplitude,
    peak-to-peak period, width at half amplitude, 25-75% rise time) are
    controlled independently and each modulated sinusoidally at
    ``spec.rr / 60`` Hz with its depth from ``spec.depths``:

    * intensity  - shifts peak and foot together (peak value varies,
      amplitude constant),
    * amplitude  - varies foot-to-peak height at fixed peak value,
    * frequency  - varies the peak-to-peak period (peaks are anchored, so no
      other feature moves),
    * width      - varies the decay constant, with the half-amplitude width
      held to the target exactly,
    * slope      - varies the upstroke duration, with the decay constant
      compensated so the half-amplitude width stays put.

    The tail of each beat decays exponentially toward its own foot value (so
    the half-amplitude crossing is exact) and is then routed onto the next
    beat's foot value: via a half-cosine blend when that foot is lower than
    the 10%-of-amplitude handover level, or by truncating the decay at the
    next foot value and holding it there when it is higher. Either way the
    minimum between consecutive peaks equals the next beat's foot value, so
    no modulation leaks between features. Noise is white Gaussian from
    ``numpy.random.default_rng(seed)`` (PCG64), scaled by the nominal pulse
    amplitude; equal seeds give bit-identical output. Depths much above 0.25
    combined with high rr/hr ratios can push consecutive foot values apart
    faster than the tail routing can absorb, degrading feature exactness;
    the usual 0-0.2 range is exact.

    Returns the record and a constant reference sampled every 2 s.
    """
    d = spec.depths
    f_resp = spec.rr / 60.0
    t_beat = 60.0 / spec.hr
    rise0 = _RISE_FRACTION * t_beat
    width0 = _WIDTH_FRACTION * t_beat

    # Peak-anchored beat schedule: the period recurrence uses the modulator at
    # the previous peak, so peak-to-peak periods follow the frequency depth
    # exactly and independently of every other depth.
    beats = []  # (t_pk, v_foot, amp, onset, rise, tau) per beat
    t_pk = rise0
    while True:
        s = math.sin(2.0 * math.pi * f_resp * t_pk)
        amp = _AMPLITUDE * (1.0 + d.amplitude * s)
        rise = rise0 * (1.0 + d.slope * s)
        width = width0 * (1.0 + d.width * s)
        # decay constant set so width50 = rise/2 + tau*ln2 hits the target
        tau = max((width - 0.5 * rise) / math.log(2.0), 0.02 * t_beat)
        beats.append((t_pk, _PEAK_LEVEL * (1.0 + d.intensity * s) - amp, amp, t_pk - rise, rise, tau))
        t_pk = t_pk + t_beat * (1.0 + d.frequency * s)
        if t_pk > spec.duration_s:
            break
    if len(beats) < 3:
        raise ValidationError("duration too short for three beats at this heart rate")

    n = int(round(spec.duration_s * spec.fs))
    t_grid = np.arange(n) / spec.fs
    x = np.empty(n)
    # beat i's upstroke starts at edges[i] (the first at t = 0, clipped if its
    # onset is negative) and its decay ends at edges[i + 1]
    edges = np.append(np.searchsorted(t_grid, [beat[3] for beat in beats], side="right"), n)
    edges[0] = 0
    peak_at = np.searchsorted(t_grid, [beat[0] for beat in beats], side="right")
    for i, (t_pk, v_foot, amp, onset, rise, tau) in enumerate(beats):
        u = np.clip((t_grid[edges[i] : peak_at[i]] - onset) / rise, 0.0, 1.0)
        x[edges[i] : peak_at[i]] = v_foot + amp * 0.5 * (1.0 - np.cos(np.pi * u))
        seg = t_grid[peak_at[i] : edges[i + 1]] - t_pk
        y = v_foot + amp * np.exp(-seg / tau)
        if i + 1 < len(beats):
            # route the tail onto the next foot value so the inter-peak minimum
            # is exactly the next beat's foot
            _, bottom, _, onset_next, _, _ = beats[i + 1]
            top = v_foot + _BLEND_LEVEL * amp
            if bottom <= top:
                # half-cosine blend from the handover level down to the next foot
                t_q = tau * math.log(1.0 / _BLEND_LEVEL)
                gap = onset_next - t_pk
                if gap > t_q:
                    in_blend = seg > t_q
                    ub = (seg[in_blend] - t_q) / (gap - t_q)
                    y[in_blend] = bottom + (top - bottom) * 0.5 * (1.0 + np.cos(np.pi * ub))
            elif bottom - v_foot < amp:
                # next foot sits above the handover level: truncate the decay
                # there and hold (reached before the handover since the level
                # is higher)
                np.maximum(y, bottom, out=y)
        x[peak_at[i] : edges[i + 1]] = y

    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        x = x + spec.noise_sd * _AMPLITUDE * rng.standard_normal(n)

    record = PpgRecord(id=f"synth-rr{spec.rr:g}-seed{spec.seed}", fs=spec.fs, samples=x)
    ref_t = np.arange(0.0, spec.duration_s + 1e-9, 2.0)
    reference = ReferenceRr(ref_t, np.full(ref_t.size, float(spec.rr)))
    return record, reference
