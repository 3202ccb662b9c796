"""Seeded inputs for the three benchmark workloads.

Every input is synthetic: ``rrcif.signal_io.synthesize`` makes the clean
PPG, and this module injects artifact bursts and clipping where a workload
asks for them. The seed fixes every random choice, so the same seed gives the
same bytes. A SHA-256 digest of each written file goes into the results, so a
change to the generator or the writers shows up as a new digest instead of a
silent change of workload.

The subjects' respiratory and heart rates are part of the workload's design
and the same for every seed; the seed draws the noise and the artifact
positions. Runs with different seeds therefore measure the same amount of
work on different realizations, which keeps run-to-run spread down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Workload name -> stable index, used to derive one random stream per workload.
WORKLOAD_IDS = {"estimate-300hz": 1, "benchmark-100hz": 2, "sweep-artifact": 3}

# (respiratory rate in breaths/min, heart rate in beats/min) of each subject
# slot. hr stays above 3*rr, so beats sample the breathing well and no subject
# is far harder than the others. estimate-300hz uses every other slot.
RATES = ((9.5, 65.0), (12.5, 71.0), (15.5, 77.0), (18.5, 83.0), (21.5, 89.0), (24.5, 95.0), (27.5, 101.0), (30.5, 107.0))

# Artifact events of the sweep-artifact workload.
EVENT_SLOT_S = 80.0
EVENT_LENGTH_S = (4.0, 6.0)
BURST_SD = 1.0  # noise standard deviation, in units of the pulse amplitude
CLIP_GAIN = 2.0


@dataclass(frozen=True)
class Size:
    """How big the generated inputs are."""

    duration_s: float
    records: int  # estimate-300hz records, each invoked in turn
    subjects: int  # subjects of the benchmark and sweep datasets


FULL = Size(duration_s=480.0, records=4, subjects=8)
# The self-check uses shorter records; six subjects keep the Wilcoxon tests on.
SMALL = Size(duration_s=96.0, records=2, subjects=6)


@dataclass
class Dataset:
    """What build() wrote, and what the checks need to know about it."""

    workload: str
    directory: Path
    size: Size
    records: list[Path] = field(default_factory=list)  # PPG CSV files
    true_rr: dict[str, float] = field(default_factory=dict)  # file stem -> rate
    rows: dict[str, int] = field(default_factory=dict)  # file stem -> data rows (record + reference)
    digests: dict[str, str] = field(default_factory=dict)  # file name -> sha256
    corrupted_fraction: float = 0.0  # share of samples inside injected bursts


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _inject_artifacts(rng, samples, fs):
    """Add seeded noise bursts and clipped segments; returns (samples, corrupted share).

    The record is cut into 80 s slots and each slot gets one event at a
    seeded position in its middle half, alternating between a burst of
    wide-band noise and a clipped segment. Clipped segments amplify the pulse
    and saturate it at the record's own extremes, which is what the artifact
    detector's clipping rule looks for. One event per slot keeps the share of
    artifact-skipped windows similar from seed to seed.
    """
    x = np.array(samples, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    n = x.size
    corrupted = np.zeros(n, dtype=bool)
    slot = int(EVENT_SLOT_S * fs)
    for k in range(max(1, n // slot)):
        length = int(rng.uniform(*EVENT_LENGTH_S) * fs)
        start = k * slot + int(rng.uniform(0.25 * slot, 0.75 * slot - length))
        seg = x[start : start + length]
        if k % 2 == 0:
            x[start : start + length] = seg + BURST_SD * rng.standard_normal(length)
        else:
            x[start : start + length] = np.clip(CLIP_GAIN * (seg - seg.mean()) + seg.mean(), lo, hi)
        corrupted[start : start + length] = True
    return x, float(corrupted.mean())


def build(workload: str, seed: int, directory: Path, size: Size = FULL) -> Dataset:
    """Write the inputs of `workload` for `seed` into `directory` (created empty)."""
    from rrcif import signal_io
    from rrcif.signal_io import ModDepths, PpgRecord, SynthSpec

    if workload not in WORKLOAD_IDS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=False)
    rng = np.random.default_rng([WORKLOAD_IDS[workload], seed])
    ds = Dataset(workload=workload, directory=directory, size=size)

    if workload == "estimate-300hz":
        rates, fs, depths, noise_sd, artifacts = RATES[::2][: size.records], 300.0, (0.1,) * 5, 0.03, False
    elif workload == "benchmark-100hz":
        rates, fs, depths, noise_sd, artifacts = RATES[: size.subjects], 100.0, (0.1,) * 5, 0.03, False
    else:
        rates, fs, depths, noise_sd, artifacts = RATES[: size.subjects], 100.0, (0.015,) * 5, 0.1, True

    corrupted = []
    for slot, (rr, hr) in enumerate(rates):
        spec = SynthSpec(
            rr=rr,
            hr=hr,
            duration_s=size.duration_s,
            fs=fs,
            depths=ModDepths(*depths),
            noise_sd=noise_sd,
            seed=int(rng.integers(2**31)),
        )
        record, reference = signal_io.synthesize(spec)
        if artifacts:
            samples, share = _inject_artifacts(rng, record.samples, fs)
            record = PpgRecord(id=record.id, fs=record.fs, samples=samples)
            corrupted.append(share)
        stem = f"s{slot:02d}"
        path = directory / f"{stem}.csv"
        signal_io.write_record(record, path)
        ds.records.append(path)
        ds.true_rr[stem] = spec.rr
        ds.rows[stem] = record.samples.size
        ds.digests[path.name] = _sha256(path)
        if workload != "estimate-300hz":
            ref_path = directory / f"{stem}_ref.csv"
            signal_io.write_reference(reference, ref_path)
            ds.rows[stem] += reference.rr.size
            ds.digests[ref_path.name] = _sha256(ref_path)
    ds.corrupted_fraction = float(np.mean(corrupted)) if corrupted else 0.0
    return ds
