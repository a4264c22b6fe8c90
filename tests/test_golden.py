"""Byte-stable output of the commands that run covers, traces, the trace
bounds, classification and saturation, pinned by sha256 digests.

Every command runs without --timings, so its output is deterministic.  A
change that moves any byte of it fails here; when the move is intended,
record the new digests and say why in CHANGES.md.  The verify run takes
the sampling suites that read covers, traces and saturation, at a sample
count where every certificate passes (at 150 samples TRACE-BOUNDS-RANDOM
misses its applicability floor).  ``verify --suite all`` runs every suite
at its default range and sample count, ID-G-SIZE and TRACE-BOUNDS-RANDOM
included, at seeds 1 and 7.
"""

import hashlib

import pytest

from ekrforge.cli import run

FAMILIES = {"G(9,4)": (9, 4), "G(20,6)": (20, 6)}

# run on each family of FAMILIES; {F} stands for the family's name
COMMANDS = [
    ["tau", "{F}"],
    ["tau", "{F}", "--format", "json-lines"],
    ["covers", "{F}", "--ell", "3"],
    ["covers", "{F}", "--ell", "3", "--format", "json-lines"],
    ["trace", "{F}", "--window", "1,2,3,4,5"],
    ["trace", "{F}", "--window", "1,2,3,4,5", "--format", "json-lines"],
    ["trace", "{F}", "--window", "1,2,3,4,5", "--check-bounds", "--format", "json-lines"],
    ["trace", "{F}", "--window", "1,2,3,4,5,6", "--check-bounds", "--format", "json-lines"],
    ["classify", "{F}", "--format", "json-lines"],
    ["saturate", "{F}"],
]

VERIFY = ["verify", "--suite", "PROP-14", "--suite", "PROP-22",
          "--suite", "TRACE-BOUNDS-RANDOM", "--suite", "SPERNER-RANDOM",
          "--suite", "SATURATION-PROPS", "--suite", "HILTON-LEX",
          "--samples", "300", "--seed", "1", "--format", "json-lines"]


VERIFY_ALL = [["verify", "--suite", "all", "--seed", seed, "--format", "json-lines"]
              for seed in ("1", "7")]


def invocations() -> list[list[str]]:
    """Every pinned command line; a family's name stands for its file."""
    out = [VERIFY, *VERIFY_ALL]
    for name, (n, k) in FAMILIES.items():
        out.append(["construct", "g", "--n", str(n), "--k", str(k)])
        out += [[name if a == "{F}" else a for a in argv] for argv in COMMANDS]
    return out


GOLDEN = {
    "verify --suite PROP-14 --suite PROP-22 --suite TRACE-BOUNDS-RANDOM --suite SPERNER-RANDOM --suite SATURATION-PROPS --suite HILTON-LEX --samples 300 --seed 1 --format json-lines":
        "d7972dd011877c37c96ad7e1dcc6534d73cf7d1d670c16a0c2663b06b09a01af",
    "verify --suite all --seed 1 --format json-lines":
        "131fdecc87c8048c9bb3fb8f70efa35829087347202c18c81a98ccac8270f2a5",
    "verify --suite all --seed 7 --format json-lines":
        "9bca632c277d25cf0fadfa47102720d15f3f9ade49374c2836f24ecbc51480f8",
    "construct g --n 9 --k 4":
        "aaec1f2588c7ec0ba017ae360abcbc0cb4f0a7742e750f071fb8ca4a8b1ced7a",
    "tau G(9,4)":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tau G(9,4) --format json-lines":
        "a80cdbe4c899cbc801669372b18855c3b39d11e023332c72a6d07a26f43a354e",
    "covers G(9,4) --ell 3":
        "71c0759ad87b042ee0f0b9a2df49d2c4fc710ee21dbfe08855c266ab3c659490",
    "covers G(9,4) --ell 3 --format json-lines":
        "e0a236a4626070fa3bee1f8814408da7043260ab629fe52b0e1426313d44a900",
    "trace G(9,4) --window 1,2,3,4,5":
        "883f17d23873b650db23d8ffb87439a6d7faaad1f8ddc62a477a75ad129cc0a5",
    "trace G(9,4) --window 1,2,3,4,5 --format json-lines":
        "873fc5816b37c8b2487c6d43243b42af7792e87cd55af10b8810d03faaf0eda8",
    "trace G(9,4) --window 1,2,3,4,5 --check-bounds --format json-lines":
        "a1fdb28cb5a4bd4202da50bd23a9973dccc995396324f4f8d97bcd5e23daf92f",
    "trace G(9,4) --window 1,2,3,4,5,6 --check-bounds --format json-lines":
        "97f8bfcc6da0851a19a3afc1b8cde19b2abc9611256d63a827f66766b3cdb00e",
    "classify G(9,4) --format json-lines":
        "d32548b62e842824f894c296281c8770ecbc730c6ba90227f2505982fcafee76",
    "saturate G(9,4)":
        "aaec1f2588c7ec0ba017ae360abcbc0cb4f0a7742e750f071fb8ca4a8b1ced7a",
    "construct g --n 20 --k 6":
        "608a834302144f823740ee9bebb9e49233d50939fde2e3565ad4baebd719dda7",
    "tau G(20,6)":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tau G(20,6) --format json-lines":
        "b6374392bdb1b5b7eb7d1f41c5fa464c9d9c219d1c57cfa6e300fd212e371348",
    "covers G(20,6) --ell 3":
        "a7e6fd021274e5337be5bbecc5368f231c0099e26157cc0bd344092daa2c0c0a",
    "covers G(20,6) --ell 3 --format json-lines":
        "9cfe893daf26d1b46eb9632e0185c2481206e554156425a480702ca2bda4343d",
    "trace G(20,6) --window 1,2,3,4,5":
        "e1147370ea97749bdcaebaf687bbc59f1b4091aa46535a7338b133a0d29f4408",
    "trace G(20,6) --window 1,2,3,4,5 --format json-lines":
        "31fd72639301459a00063cd9f656dde738684a15a32ff545510c655f4420c75d",
    "trace G(20,6) --window 1,2,3,4,5 --check-bounds --format json-lines":
        "2b9c6347f9fd7491ce8db488b2bc5a6130087543d0babf4746dc5d9510cf73ec",
    "trace G(20,6) --window 1,2,3,4,5,6 --check-bounds --format json-lines":
        "b60321af10b60343aa53d322b6096ffc30db64390983e84b3914e8c2c782657e",
    "classify G(20,6) --format json-lines":
        "d32548b62e842824f894c296281c8770ecbc730c6ba90227f2505982fcafee76",
    "saturate G(20,6)":
        "608a834302144f823740ee9bebb9e49233d50939fde2e3565ad4baebd719dda7",
}


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    files = {}
    for name, (n, k) in FAMILIES.items():
        files[name] = root / f"g_{n}_{k}.txt"
        assert run(["construct", "g", "--n", str(n), "--k", str(k),
                    "--out", str(files[name])]) == 0
    return files


def digest(argv: list[str], files: dict, out) -> str:
    """sha256 of what the command writes, run in process with --out."""
    assert run([str(files.get(a, a)) for a in argv] + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_output_bytes(argv, family_files, tmp_path):
    assert digest(argv, family_files, tmp_path / "out") == GOLDEN[" ".join(argv)]
