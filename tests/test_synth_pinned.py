"""Bytes of the synthetic generator and the CSV writers, pinned.

Every test record, golden file and benchmark input comes from
``signal_io.synthesize``, so a refactor of it (or of ``write_record`` and
``write_reference``) must reproduce these SHA-256 digests exactly: the
samples' ``tobytes()``, the reference's times and rates, and two CSV files.

Rewrite the digests only for a deliberate change of behaviour; running this
module as a script prints them::

    PYTHONPATH=src python tests/test_synth_pinned.py
"""

import hashlib

import pytest

from rrcif.errors import ValidationError
from rrcif.signal_io import ModDepths, SynthSpec, synthesize, write_record, write_reference

DEFAULT = ModDepths(0.1, 0.1, 0.1, 0.1, 0.1)  # the `synth` command's default depths

SPECS = {
    "default": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=DEFAULT),
    "zero-depths": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0),
    "intensity": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=ModDepths(intensity=0.3)),
    "amplitude": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=ModDepths(amplitude=0.3)),
    "frequency": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=ModDepths(frequency=0.3)),
    "width": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=ModDepths(width=0.3)),
    # any positive slope depth starts the first upstroke before t = 0: the
    # first peak sits at the nominal rise time and sin(phase) > 0 lengthens it
    "slope": SynthSpec(rr=18.0, hr=78.0, duration_s=60.0, depths=ModDepths(slope=0.3)),
    "fs25-noise": SynthSpec(rr=12.0, hr=70.0, duration_s=60.0, fs=25.0, depths=DEFAULT, noise_sd=0.05, seed=3),
    "fs300-noise": SynthSpec(rr=30.0, hr=90.0, duration_s=40.0, fs=300.0, depths=DEFAULT, noise_sd=0.02, seed=7),
    "fs333.3": SynthSpec(rr=24.0, hr=100.0, duration_s=40.0, fs=333.3, depths=DEFAULT),
    # the third peak lies at 0.3 * 60/78 + 2 * 60/78 = 1.769 s, the fourth past 2.5 s
    "three-beats": SynthSpec(rr=18.0, hr=78.0, duration_s=1.8, depths=ModDepths(intensity=0.2, slope=0.2)),
    # 12.3456 s * 100 Hz = 1234.56 samples, rounded to 1235
    "fractional-n": SynthSpec(rr=20.0, hr=80.0, duration_s=12.3456, depths=DEFAULT, noise_sd=0.02, seed=1),
}

# name -> (sha256 of samples.tobytes(), sha256 of times_s.tobytes() + rr.tobytes())
PINNED = {
    "default": (
        "696a3a98e63e4c227cb0d9658250b02225443ee47f3eea63883d7c7040ed0c29",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "zero-depths": (
        "797be3da6608638c06b2436d2b96182bdf75f00fecea1a8a0a1e90df3bb90c53",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "intensity": (
        "ccc23a753d17777d8c97f6a3046c08dd00d1c4c768cce4daed7c9e7acddf8e88",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "amplitude": (
        "638c766278bb4566c02a3af8660a9cd0a42fa23a6e6c7bc09a8a407b1ecb1d38",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "frequency": (
        "ddbd5fcb68df5e31ef203e6c23b1062c479aa4b22a2f0ef027a6f15543438804",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "width": (
        "734edebdb7b9480c5f11db9f46bf88a22584f9f7101d2dc711a71f4d5be7b8be",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "slope": (
        "8b8588ee99857c365281f9da6f893c5ecedee1e2afd6615a9db5a8a955999605",
        "15b45e687545dd22a0d3b3670d1622c6d70c06395e93747b16a8a8c8222fe47f",
    ),
    "fs25-noise": (
        "9c4b2a349c2f08d33da3e61f6af6839a37b5093732d3a1a6b06048fe4e23d25c",
        "87683a706ba1e20d120eb7e0af977a706214430f8c272c183d4a5a842ad534e8",
    ),
    "fs300-noise": (
        "dee0d6728ddb07a86eadb13da1c347f59852890c8e32d890b5dc6bad86befdbe",
        "bbcbc6e78f4418c3b256c43c7844265a0e111505cf3112699fe76ce688aaf341",
    ),
    "fs333.3": (
        "a0ee4eef2d0e623c3e92be8fb75e96753ce7207e6782509aeb0d5a0c237acf4f",
        "afe1d31290821e819da76831af079481aedbdde26ef55739e73de7150f4cbbcb",
    ),
    "three-beats": (
        "6e80e74bd67f2d800a7257a4960fbfb3ca9c9636e1189a1f8762921803b35b18",
        "283820644a556d36d3817e4376900341e005f569941509f47e15b2eb9f45f11b",
    ),
    "fractional-n": (
        "54968ed5a3702f1330b58bad176d21656dc0c3e6f5c213351ea1545959d97a5c",
        "4b3cf9a25ac618d87e285f4cc3f7dc41829dfe5ca28937ab1b1f16a6ecbb3f12",
    ),
}

# sha256 of the `write_record` and `write_reference` files of "fractional-n", with a comment line
RECORD_CSV_SHA256 = "4a21722ce78fabb24ae33d582af763cacbbc9017debbe1abe9778f564dc90d24"
REFERENCE_CSV_SHA256 = "1d91d6e62f617112317c92c2a7bcb49ca010b0d305e8a76bd3faa28448c74400"
COMMENT = "rrcif pinned synth"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(spec):
    record, reference = synthesize(spec)
    return _sha256(record.samples.tobytes()), _sha256(reference.times_s.tobytes() + reference.rr.tobytes())


def test_pins_cover_every_spec():
    assert sorted(PINNED) == sorted(SPECS)


@pytest.mark.parametrize("name", SPECS)
def test_synthesize_bytes_pinned(name):
    assert digests(SPECS[name]) == PINNED[name]


def test_three_beats_is_the_shortest_duration():
    record, _ = synthesize(SPECS["three-beats"])
    assert record.samples.size == 180
    with pytest.raises(ValidationError, match="three beats"):
        synthesize(SynthSpec(rr=18.0, hr=78.0, duration_s=1.75))


def test_csv_writers_bytes_pinned(tmp_path):
    record, reference = synthesize(SPECS["fractional-n"])
    assert record.samples.size == 1235
    write_record(record, tmp_path / "r.csv", comment=COMMENT)
    write_reference(reference, tmp_path / "r_ref.csv", comment=COMMENT)
    assert _sha256((tmp_path / "r.csv").read_bytes()) == RECORD_CSV_SHA256
    assert _sha256((tmp_path / "r_ref.csv").read_bytes()) == REFERENCE_CSV_SHA256


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for name, spec in SPECS.items():
        samples, reference = digests(spec)
        print(f'    "{name}": (\n        "{samples}",\n        "{reference}",\n    ),')
    record, reference = synthesize(SPECS["fractional-n"])
    with tempfile.TemporaryDirectory() as tmp:
        write_record(record, Path(tmp) / "r.csv", comment=COMMENT)
        write_reference(reference, Path(tmp) / "r_ref.csv", comment=COMMENT)
        print(f'RECORD_CSV_SHA256 = "{_sha256((Path(tmp) / "r.csv").read_bytes())}"')
        print(f'REFERENCE_CSV_SHA256 = "{_sha256((Path(tmp) / "r_ref.csv").read_bytes())}"')
