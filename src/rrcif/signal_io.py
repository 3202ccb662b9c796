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
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

# Uniform-step tolerance for PPG CSV timestamps, relative to the step itself.
STEP_TOLERANCE = 1e-6


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PpgRecord:
    """A uniformly sampled PPG waveform."""

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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fs


@dataclass(frozen=True)
class ReferenceRr:
    """Reference respiratory rate annotations (e.g. from capnography)."""

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
        if np.any(np.diff(self.times_s) < 0):
            bad = int(np.flatnonzero(np.diff(self.times_s) < 0)[0]) + 1
            raise ValidationError(f"reference: decreasing timestamp at row {bad}")
        if np.any(self.times_s < 0):
            raise ValidationError("reference: negative timestamp")
        if np.any((self.rr <= 0) | (self.rr >= 120)) or not np.all(np.isfinite(self.rr)):
            raise ValidationError("reference: rr values must lie in (0, 120) breaths/min")


@dataclass(frozen=True)
class ModDepths:
    """Per-variation modulation depths in [0, 1] for the synthetic generator."""

    intensity: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    width: float = 0.0
    slope: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"depth {name} must be in [0, 1], got {v}")


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


def _read_csv_rows(path, expected_header):
    """Yield (line_no, float values) for a two-column CSV with the given header.

    Line numbers are lines of the file, so comment and blank lines count; a
    row whose quoted field holds a line break is named by its last line. A
    non-finite value in the first column raises :class:`ValidationError`
    naming its line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, path, expected_header)
        for row in reader:
            line_no = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}: line {line_no}: expected {len(expected_header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: non-numeric field in {row!r}") from None
            if not math.isfinite(values[0]):
                raise ValidationError(f"{path}: line {line_no}: non-finite timestamp {values[0]}")
            yield line_no, values


def _read_columns(path, expected_header) -> np.ndarray:
    """Return the rows of a two-column CSV as an (n, 2) array.

    The body is parsed by one ``np.loadtxt`` call. Whatever that call rejects
    or cannot be trusted with (a parse error, an empty body, another column
    count, a non-finite timestamp) is read again by
    :func:`_read_csv_rows`, which accepts the same files and raises the
    errors that name a line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        _read_header(csv.reader(fh), path, expected_header)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns, rather than fails, on an empty body
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            data = None
    if (
        data is not None
        and data.shape[0] >= 1
        and data.shape[1] == len(expected_header)
        and np.isfinite(data[:, 0]).all()
    ):
        return data
    rows = [values for _, values in _read_csv_rows(path, expected_header)]
    return np.array(rows, dtype=float).reshape(-1, len(expected_header))


def read_record(path) -> PpgRecord:
    """Load a PPG recording from a ``t,ppg`` CSV or, by its ``.json`` suffix,
    a record JSON file.

    Raises :class:`ParseError` for malformed files and :class:`ValidationError`
    for structurally valid files with out-of-contract content.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        record, _ = read_record_json(path)
        return record

    data = _read_columns(path, ("t", "ppg"))
    if data.shape[0] < 2:
        raise ValidationError(f"{path}: need at least 2 samples, got {data.shape[0]}")
    dt = np.diff(data[:, 0])
    if np.any(dt <= 0):
        row = int(np.flatnonzero(dt <= 0)[0]) + 1
        line, _ = next(itertools.islice(_read_csv_rows(path, ("t", "ppg")), row, None))
        raise ValidationError(f"{path}: line {line}: timestamps not strictly increasing")
    step = float(np.median(dt))
    if np.max(np.abs(dt - step)) > STEP_TOLERANCE * step:
        raise ValidationError(f"{path}: non-uniform sampling (step {step:g} s, max deviation {np.max(np.abs(dt - step)):g} s)")
    return PpgRecord(id=path.stem, fs=1.0 / step, samples=np.ascontiguousarray(data[:, 1]))


def read_record_json(path) -> tuple[PpgRecord, ReferenceRr | None]:
    """Load a record JSON file, returning the embedded reference if present."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for key in ("id", "fs", "samples"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    fs = _json_floats(path, obj["fs"])
    if fs.ndim != 0:
        raise ParseError(f"{path}: fs must be a number")
    record = PpgRecord(id=str(obj["id"]), fs=float(fs), samples=_json_floats(path, obj["samples"]))
    reference = None
    if obj.get("reference") is not None:
        ref = obj["reference"]
        if not isinstance(ref, dict) or "t" not in ref or "rr" not in ref:
            raise ParseError(f"{path}: reference must hold 't' and 'rr' arrays")
        reference = ReferenceRr(_json_floats(path, ref["t"]), _json_floats(path, ref["rr"]))
    return record, reference


def _json_floats(path, value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: non-numeric value: {exc}") from None


def read_reference(path) -> ReferenceRr:
    """Load a ``t,rr`` reference CSV."""
    data = _read_columns(Path(path), ("t", "rr"))
    if data.shape[0] == 0:
        raise ValidationError(f"{path}: reference has no rows")
    return ReferenceRr(np.ascontiguousarray(data[:, 0]), np.ascontiguousarray(data[:, 1]))


def write_record(record: PpgRecord, path, comment: str | None = None) -> None:
    """Write a record as CSV, or as JSON for a ``.json`` path; round-trips
    samples exactly."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"id": record.id, "fs": record.fs, "samples": [float(v) for v in record.samples]}, fh)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("t,ppg\n")
        for i, v in enumerate(record.samples):
            fh.write(f"{repr(i / record.fs)},{repr(float(v))}\n")


def write_reference(reference: ReferenceRr, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("t,rr\n")
        for t, v in zip(reference.times_s, reference.rr):
            fh.write(f"{repr(float(t))},{repr(float(v))}\n")


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

    Each beat is a raised-cosine upstroke followed by an exponential decay.
    The five beat features that downstream stages measure (peak value,
    foot-to-peak amplitude, peak-to-peak period, width at half amplitude,
    25-75% rise time) are controlled independently and each modulated
    sinusoidally at ``spec.rr / 60`` Hz with its depth from ``spec.depths``:

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
    ln2 = math.log(2.0)

    def phase(t):
        return 2.0 * math.pi * f_resp * t

    # Peak-anchored beat schedule: the period recurrence uses the modulator at
    # the previous peak, so peak-to-peak periods follow the frequency depth
    # exactly and independently of every other depth.
    peaks = [rise0]
    while True:
        t_next = peaks[-1] + t_beat * (1.0 + d.frequency * math.sin(phase(peaks[-1])))
        if t_next > spec.duration_s:
            break
        peaks.append(t_next)
    if len(peaks) < 3:
        raise ValidationError("duration too short for three beats at this heart rate")

    n = int(round(spec.duration_s * spec.fs))
    t_grid = np.arange(n) / spec.fs
    x = np.empty(n)

    def beat_params(t_pk):
        s = math.sin(phase(t_pk))
        v_peak = _PEAK_LEVEL * (1.0 + d.intensity * s)
        amp = _AMPLITUDE * (1.0 + d.amplitude * s)
        rise = rise0 * (1.0 + d.slope * s)
        width = width0 * (1.0 + d.width * s)
        # decay constant set so width50 = rise/2 + tau*ln2 hits the target
        tau = max((width - 0.5 * rise) / ln2, 0.02 * t_beat)
        return v_peak, amp, rise, tau

    params = [beat_params(t_pk) for t_pk in peaks]

    def fill(sl, values):
        x[sl] = values

    # leading edge: first upstroke, clipped at t = 0 if the onset is negative
    v_pk0, amp0, rise_0, _ = params[0]
    onset0 = peaks[0] - rise_0
    i_end = min(np.searchsorted(t_grid, peaks[0], side="right"), n)
    seg = t_grid[:i_end]
    u = np.clip((seg - onset0) / rise_0, 0.0, 1.0)
    fill(slice(0, i_end), (v_pk0 - amp0) + amp0 * 0.5 * (1.0 - np.cos(np.pi * u)))

    for i, t_pk in enumerate(peaks):
        v_pk, amp, rise, tau = params[i]
        v_foot = v_pk - amp
        if i + 1 < len(peaks):
            v_pk_next, amp_next, rise_next, _ = params[i + 1]
            onset_next = peaks[i + 1] - rise_next
            i0 = np.searchsorted(t_grid, t_pk, side="right")
            i1 = min(np.searchsorted(t_grid, onset_next, side="right"), n)
            seg = t_grid[i0:i1] - t_pk
            y = v_foot + amp * np.exp(-seg / tau)
            # route the tail onto the next foot value so the inter-peak minimum
            # is exactly the next beat's foot
            top = v_foot + _BLEND_LEVEL * amp
            bottom = v_pk_next - amp_next
            gap = onset_next - t_pk
            if bottom <= top:
                # half-cosine blend from the handover level down to the next foot
                t_q = tau * math.log(1.0 / _BLEND_LEVEL)
                if gap > t_q:
                    in_blend = seg > t_q
                    ub = (seg[in_blend] - t_q) / (gap - t_q)
                    y[in_blend] = bottom + (top - bottom) * 0.5 * (1.0 + np.cos(np.pi * ub))
            elif bottom - v_foot < amp:
                # next foot sits above the handover level: truncate the decay
                # there and hold (reached before the handover since the level
                # is higher)
                np.maximum(y, bottom, out=y)
            fill(slice(i0, i1), y)
            # upstroke of the next beat
            i2 = min(np.searchsorted(t_grid, peaks[i + 1], side="right"), n)
            seg = t_grid[i1:i2] - onset_next
            u = np.clip(seg / rise_next, 0.0, 1.0)
            fill(slice(i1, i2), (v_pk_next - amp_next) + amp_next * 0.5 * (1.0 - np.cos(np.pi * u)))
        else:
            # final beat: plain exponential tail to the end of the record
            i0 = np.searchsorted(t_grid, t_pk, side="right")
            seg = t_grid[i0:] - t_pk
            fill(slice(i0, n), v_foot + amp * np.exp(-seg / tau))

    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        x = x + spec.noise_sd * _AMPLITUDE * rng.standard_normal(n)

    record = PpgRecord(id=f"synth-rr{spec.rr:g}-seed{spec.seed}", fs=spec.fs, samples=x)
    ref_t = np.arange(0.0, spec.duration_s + 1e-9, 2.0)
    reference = ReferenceRr(ref_t, np.full(ref_t.size, float(spec.rr)))
    return record, reference
