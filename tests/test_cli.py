import hashlib
import io
import math
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modelsets import cli, refine, scheme
from modelsets.cyclotomic import CycInt
from tests.conftest import TAU


# sha256 of the files `solve --preset penrose-example1 --h 0.03125` writes,
# as recorded with exact cell coverage, the point-reflection and row-mirror
# quotients, a solver state of the rows up to y = 0 whose sums run channel
# by channel and count each row before it twice, erosion by meeting edge
# lines, numpy's default inverse FFT scaling and nu-weighted kernel spectra
# with the mirror phase folded in, each output's sum formed on the spectrum
# rows up to n // 2 under the row mirror, the Anderson fit, the warm
# start's prolongation, the transport nu m, the window geometry's planar
# products and the Fourier product's formed elementwise, on numpy 2.4.6,
# and the Fourier wavevectors drawn from random.Random(seed); the bytes
# follow the last bit of every float, so they hold for one numpy build on
# CPUs with AVX2 and FMA3, whatever OpenBLAS's thread count or kernel
SOLVE_EX1_SHA256 = {
    "density_ch1.txt": "4d8eeefa78f63fe3b5430edbf15690eabeffab227d41a3d058aaec6744e011ea",
    "density_ch2.txt": "512685608b374fcdf72cfb6e28abd6e63bd1005bf6df08aa96297dc4ecc4671d",
    "density_ch3.txt": "a7e7d06355aa00815490a13b9a7ee3cf072a36dead1d1d3dab76dec57750f28f",
    "density_ch4.txt": "4d8eeefa78f63fe3b5430edbf15690eabeffab227d41a3d058aaec6744e011ea",
    "density.csv": "0788f70f9cbc23748bce5271b84918c532c2cc046cf14f2942dab02ba112398f",
    "summary.txt": "d22488c77b3f128d549db77ffff81ca04d5582a5e8eddd34f5f09b0812835282",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.03125` writes,
# recorded like SOLVE_EX1_SHA256; here every channel and every kernel
# spectrum is live
SOLVE_EX2_SHA256 = {
    "density_ch1.txt": "3aae805ff1b37eed5a95627780076d22f8924093f0417829f938feb132025903",
    "density_ch2.txt": "387584f4696d49286fc7e7405d3e69b7c2a9006498e5cf15e00ba9b1e9f6c814",
    "density_ch3.txt": "7b9c2f4bf49daffda742754738774c5022b115ccd757d3897a9a8d93c292cece",
    "density_ch4.txt": "13b9739ba5c9b8e38a36b7ce50eb4029e0c3e33af8c179f1f0d2b5bb9687084e",
    "density.csv": "67241041193ef260ab8d80cf3aa0c183ffe8bc03c79ef987fc064808b3fc65cc",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "1901bec5f68072afac30743ca4c10a069d25067914a13063f43eb966d70c6336",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.03125` writes
# with gamma = 0.031, -0.047, recorded like SOLVE_EX1_SHA256; the shifted
# windows are not point-symmetric, so this run takes the general solve
SOLVE_EX2_GAMMA_SHA256 = {
    "density_ch1.txt": "adae01e77e341bd330ec2d0e5fe32947c42b80ac45849dbc215746a29633f11e",
    "density_ch2.txt": "3dbe1e5a872d6bb322b9b0cb0ed4d67993ea52c6636e2a59c54b424751788d23",
    "density_ch3.txt": "d412a831426aa4e0b40f40f0100723819db9f7827516eb7da5c78a7cf9d31ba0",
    "density_ch4.txt": "dd9e08e1eb9cd5260d629bf7dab73762523e8cc99e0b5f8f4ffd01e08024b694",
    "density.csv": "b259a0355a957579a8a572075a655f6054ea16060ab5d12d8b8d742e4358b867",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "738026464dd088ddd297e4f9ac530069c7c4339ca13fd5d0fa649f9dfb1b9f08",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.0078125` writes,
# recorded like SOLVE_EX1_SHA256: a 437 x 437 grid written in 7 row blocks,
# with two mirrored channel pairs, so block boundaries and the reversed
# reading of a mirrored channel's text both show in the bytes; the warm
# start's coarse level is 109 x 109 at h = 1/32, the smallest grid that
# frames the windows there
SOLVE_EX2_H128_SHA256 = {
    "density_ch1.txt": "6781e4472f5d825fc55754a7c8917c6bd7bd8176233433efc27d608f0db290b9",
    "density_ch2.txt": "b06e3bbcef9e354741587a87a96e232f974a605fa7ccc2c55f1a0cae198307d6",
    "density_ch3.txt": "79096eab0983bd2120d804e8d59a509ef449771580426af62c1b8833d43e8a6d",
    "density_ch4.txt": "2540232835e52247582695602078e8e508c5d358feb0a59c27ff48ce12445948",
    "density.csv": "43c7177f1532dcdb3895d21260d4b1dca909fa799af40f511fd6fbbe7ce3496e",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "50cfa8d4092ba76530a8278a210d822a3e50b2307b7f78b5a6f24cd85d09d084",
}

# sha256 of the report.txt `verify --preset penrose-example2 --h 0.03125`
# writes, recorded like SOLVE_EX1_SHA256, with the ID2 sample drawn by
# random.Random(seed).sample
VERIFY_EX2_REPORT_SHA256 = "2897ef057683baab203c89c22b959cdf54a73a1a5241b023322ad6200f4cbae1"

# sha256 of that report.txt under other settings, recorded like
# SOLVE_EX1_SHA256, with the exit code: (flags, config text, exit, digest).
# At s = 3 and 4.9 the closure patch (closure_s = 5) reaches past s; at
# s = 3 ID2 has no translations and ID3 and DENSITY fail, and the bytes are
# pinned all the same
VERIFY_EX2_VARIANT_SHA256 = {
    "s3": (["--s", "3"], None, 1,
           "ed947320c2c10caff96857e9997e5e90c0123859f415b930cade5d86b0cc0123"),
    "s4.9": (["--s", "4.9"], None, 1,
             "f7fb41f4bd58e4d7e8d4e7eb650bc172f745b1d3de13e02117660d4422b19a25"),
    "gamma": ([], "gamma = 0.031, -0.047\n", 0,
              "5876504ec4d740c9da4eebb3695ee852dacdc4f5797a4d648448db228868703c"),
    "open": ([], "boundary = open\n", 0,
             "a6c0a114a120dab3a8a533484bee7c714d70bcb91bd9b1fad84bdb52d844952c"),
}


def run(args):
    return cli.main(args)


def test_windows_command(tmp_path):
    out = tmp_path / "w"
    assert run(["windows", "--out", str(out)]) == 0
    lines = (out / "windows.txt").read_text().strip().split("\n")
    table = {tuple(line.split()[:2]): line for line in lines}
    assert table[("4", "3")].endswith("POINT 0 0")
    assert table[("1", "2")].endswith("POINT 0 0")
    assert table[("4", "2")].endswith("EMPTY")
    assert table[("1", "3")].endswith("EMPTY")
    areas = [[float(v) for v in row.split("\t")]
             for row in (out / "areas.txt").read_text().strip().split("\n")]
    pentagon_area = 2.5 * math.sin(math.radians(72))
    assert abs(areas[2][3] / pentagon_area - 1.0) < 1e-9


def test_windows_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["windows", "--out", str(out1)]) == 0
    assert run(["windows", "--out", str(out2)]) == 0
    assert (out1 / "windows.txt").read_bytes() == (out2 / "windows.txt").read_bytes()
    assert (out1 / "areas.txt").read_bytes() == (out2 / "areas.txt").read_bytes()


def test_points_command(tmp_path):
    out = tmp_path / "p"
    assert run(["points", "--s", "0.5", "--out", str(out)]) == 0
    lines = (out / "points.csv").read_text().strip().split("\n")
    assert lines[0] == "component,m0,m1,m2,m3,phys_re,phys_im,int_re,int_im"
    for line in lines[1:]:
        fields = line.split(",")
        assert math.hypot(float(fields[5]), float(fields[6])) <= 0.5 + 1e-9


def test_points_row_count_matches_oracle(tmp_path):
    from tests.test_scheme import ORACLE_COUNTS_S10
    out = tmp_path / "p10"
    assert run(["points", "--s", "10", "--out", str(out)]) == 0
    lines = (out / "points.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == sum(ORACLE_COUNTS_S10)


def test_options_may_come_before_the_command(tmp_path):
    # one parser reads the command and the options in any order
    before, after = tmp_path / "before", tmp_path / "after"
    assert run(["--s", "10", "points", "--out", str(before)]) == 0
    assert run(["points", "--s", "10", "--out", str(after)]) == 0
    assert (before / "points.csv").read_bytes() == (after / "points.csv").read_bytes()


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "{windows,points,nu,solve,verify}" in capsys.readouterr().out


def test_unknown_command_exits_2_with_usage(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modelsets ")
    assert "argument command: invalid choice: 'frobnicate'" in err
    assert not out.exists()


def test_build_config_returns_every_key():
    args = SimpleNamespace(config=None, preset="penrose-example2", s=12.0, h=None, tol=None)
    cfg = cli.build_config(args)
    assert set(vars(cfg)) == set(cli.KEYS) | {"spec", "nu_matrix"}
    assert cfg.s == 12.0 and cfg.h == cli.KEYS["h"][0]
    assert cfg.nu_policy == "explicit" and cfg.nu_matrix == cli.EXAMPLE2_MATRIX
    assert cfg.spec.r == 4


def test_nu_command_presets(tmp_path):
    out1 = tmp_path / "n1"
    assert run(["nu", "--preset", "penrose-example1", "--out", str(out1)]) == 0
    pf = (out1 / "pf.txt").read_text()
    assert "lambda = 1\n" in pf
    assert "w = 0 0.5 0.5 0\n" in pf
    nu = [[float(v) for v in row.split("\t")]
          for row in (out1 / "nu.txt").read_text().strip().split("\n")]
    assert abs(nu[0][0] - (2 - TAU) / 4) < 1e-9
    out2 = tmp_path / "n2"
    assert run(["nu", "--preset", "penrose-example2", "--out", str(out2)]) == 0
    nu2 = [[float(v) for v in row.split("\t")]
           for row in (out2 / "nu.txt").read_text().strip().split("\n")]
    assert nu2[0] == [0.5, 0.0, 0.0, 0.5]
    assert "w = 0.25 0.25 0.25 0.25\n" in (out2 / "pf.txt").read_text()


def test_area_policy_overrides_a_preset_matrix(tmp_path):
    # the file's policy decides the weights, so example 2 weighted by area is example 1
    config = tmp_path / "area.cfg"
    config.write_text("nu_policy = area-markov\n")
    out1, out2 = tmp_path / "ex1", tmp_path / "ex2"
    assert run(["nu", "--preset", "penrose-example1", "--out", str(out1)]) == 0
    assert run(["nu", "--preset", "penrose-example2", "--config", str(config),
                "--out", str(out2)]) == 0
    for name in ("nu.txt", "pf.txt"):
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name


@pytest.mark.parametrize("command", ["windows", "points", "nu", "solve", "verify"])
def test_nu_rows_need_the_explicit_policy(tmp_path, capsys, command):
    # rows that no policy reads are refused by every command, not ignored by some
    config = tmp_path / "rows.cfg"
    config.write_text("".join(f"nu_row{j} = 0.25 0.25 0.25 0.25\n" for j in range(1, 5)))
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {config}:1: 'nu_row1' needs nu_policy = explicit\n"
    assert not out.exists()


def test_explicit_matrix_via_config(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "scheme = penrose\n"
        "nu_policy = explicit\n"
        "nu_row1 = 0.5 0 0 0.5\n"
        "nu_row2 = 0.25 0.25 0.25 0.25\n"
        "nu_row3 = 0.25 0.25 0.25 0.25\n"
        "nu_row4 = 0.5 0 0 0.5\n")
    out = tmp_path / "n"
    assert run(["nu", "--config", str(config), "--out", str(out)]) == 0
    assert "w = 0.25 0.25 0.25 0.25\n" in (out / "pf.txt").read_text()


def test_inline_scheme_config(tmp_path):
    # the builtin Penrose windows written inline with repr floats give the
    # builtin's bytes, points and weights included
    config = tmp_path / "inline.cfg"
    config.write_text("scheme = inline\nq = 0 0 -1 -1\n" + "".join(
        f"window{k} = {'; '.join(f'{float(x)!r}, {float(y)!r}' for x, y in w.vertices)}\n"
        f"coset{k} = {k} 0 0 0\n"
        for k, w in enumerate(scheme.penrose_scheme().windows, start=1)))
    out, builtin = tmp_path / "inline", tmp_path / "builtin"
    for command in (["windows"], ["points", "--s", "10"], ["nu"]):
        assert run(command + ["--config", str(config), "--out", str(out)]) == 0
        assert run(command + ["--out", str(builtin)]) == 0
    names = ["areas.txt", "nu.txt", "pf.txt", "points.csv", "windows.txt"]
    assert sorted(os.listdir(out)) == sorted(os.listdir(builtin)) == names
    for name in names:
        assert (out / name).read_bytes() == (builtin / name).read_bytes(), name


def test_config_errors_carry_line_numbers(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("s = 40\nthis line has no equals sign\n")
    assert run(["windows", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert ":2:" in capsys.readouterr().err
    config.write_text("unknown_knob = 3\n")
    assert run(["windows", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ":1:" in err and "unknown_knob" in err


def test_invalid_values_rejected(tmp_path, capsys):
    assert run(["points", "--s", "-2", "--out", str(tmp_path)]) == 2
    assert "positive" in capsys.readouterr().err
    assert run(["solve", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


BAD_CONFIGS = [
    # each value would otherwise make a cross-check vacuous or crash mid-run
    ("k_count = 0\n", 1, "k_count must be positive"),
    ("k_max = 0\n", 1, "k_max must be positive"),
    ("id2_samples = 0\n", 1, "id2_samples must be positive"),
    ("supersample = 0\n", 1, "supersample"),
    ("closure_s = -1\n", 1, "closure_s must be positive"),
    ("tol = 0\n", 1, "tol must be positive"),
    ("maxit = 0\n", 1, "maxit must be positive"),
    ("s = 0\n", 1, "s must be positive"),
    ("h = -0.01\n", 1, "h must be positive"),
    ("k_count = many\n", 1, "k_count"),
    ("boundary = fuzzy\n", 1, "boundary"),
    ("nu_policy = magic\n", 1, "nu_policy"),
    ("scheme = hexagonal\n", 1, "scheme"),
    ("gamma = 0.1\n", 1, "gamma"),
    ("nu_policy = explicit\n", 1, "explicit"),
    ("nu_row1 = 1 0 0 0\n", None, "nu_row2"),
    ("seed = -1\n", 1, "seed must be non-negative"),
    ("s = 8\noutputs =\n", 2, "outputs needs at least one of grids, csv"),
    # keys that would otherwise be accepted and never read: the key and its line
    ("s = 40\nwindowz = 1\n", 2, "bad.cfg:2: unknown key 'windowz'"),
    ("coset_shift = 2\n", 1, "bad.cfg:1: unknown key 'coset_shift'"),
    ("s = 40\nwindow7 = 0,0;1,0;0,1\n", 2, "bad.cfg:2: 'window7'"),
    ("q = 1,2,3,4\n", 1, "bad.cfg:1: 'q'"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 0 0\n"
     "window3 = 0,0;1,0;0,1\nq = 0 0 -1 -1\n", 4, "bad.cfg:4: 'window3'"),
    ("nu_row5 = 1 0 0 0\n", 1, "bad.cfg:1: 'nu_row5'"),
    ("s = 8\nnu_row2 = 0 1 0 0\nnu_row1 = 1 0 0 0\nnu_row3 = 0 0 1 0\nnu_row4 = 0 0 0 1\n", 3,
     "bad.cfg:3: 'nu_row1' needs nu_policy = explicit"),
    ("s = 3\ns = 4\n", 2, "bad.cfg:2: 's'"),
    # values of the keys read once the scheme is known
    ("scheme = inline\nwindow1 = 0,0;1,0\n", 2, "window1 needs >= 3 vertices"),
    ("scheme = inline\nwindow1 = 0,0;1,0;2,0\n", 2, "bad value for window1: polygon"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 x 0\n", 3,
     "coset1: could not parse"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 0 0\nq = 1 2 3\n", 4,
     "q needs 4 numbers"),
    ("nu_policy = explicit\nnu_row1 = 0.5 0 0 0.5\nnu_row2 = 0.5 0.5 -0.5 0.5\n", 3,
     "nu_row2: weights must be non-negative"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1e19 0 0 0\n", 3,
     "bad value for coset1: coefficient 10000000000000000000 exceeds the 64-bit range"),
    # SchemeSpec's own checks, located: the later of two cosets with one residue, and q
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 0 0\nwindow2 = 0,0;1,0;0,1\n"
     "coset2 = 0 1 0 0\nq = 0 0 -1 -1\n", 5, "coset2: residue 1 repeats an earlier coset's"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 0 0\nq = 2 0 0 0\n", 4,
     "q: the internal image of the similarity must be contractive, got modulus 2"),
    # the polygon transforms square the wavevector modulus
    ("k_max = 1e151\n", 1, "at most 1e+150, got 1e+151"),
]


@pytest.mark.parametrize("text,line,key", BAD_CONFIGS,
                         ids=[key.split(" must be")[0] for _, _, key in BAD_CONFIGS])
def test_bad_config_table(tmp_path, capsys, text, line, key):
    # a bad value names its file and line; a missing key, which has no line, its file
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(["verify", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert ("bad.cfg: " if line is None else f"bad.cfg:{line}: ") in err
    assert not out.exists()


# non-finite numbers, from a config file or a flag, each exit 2 before any output
# the line of a value from the file, or None for a flag's value, which has no line
NONFINITE_CONFIGS = [
    pytest.param("points", "gamma = nan, 0\n", [], 1, "gamma: numbers must be finite",
                 id="gamma-nan"),
    pytest.param("solve", "k_max = inf\n", [], 1,
                 "k_max must be positive and at most 1e+150, got inf", id="k_max-inf"),
    pytest.param("solve", "tol = inf\n", [], 1, "tol must be positive and finite, got inf",
                 id="tol-inf"),
    pytest.param("solve", "s = nan\n", [], 1, "s must be positive and finite, got nan",
                 id="s-nan"),
    pytest.param("solve", "nu_policy = explicit\nnu_row1 = 1 0 0 inf\n", [], 2,
                 "nu_row1: numbers must be finite", id="nu_row-inf"),
    pytest.param("solve", "scheme = inline\nwindow1 = 0,0;1,0;0,nan\n", [], 2,
                 "window1 vertex: numbers must be finite", id="window-nan"),
    pytest.param("solve", "", ["--h", "inf"], None, "h must be positive and finite, got inf",
                 id="flag-h-inf"),
    pytest.param("solve", "s = 40\n", ["--s", "inf"], None,
                 "s must be positive and finite, got inf", id="flag-over-file-s-inf"),
    pytest.param("solve", "", ["--tol", "nan"], None,
                 "tol must be positive and finite, got nan", id="flag-tol-nan"),
    pytest.param("verify", "", ["--s=-inf"], None, "s must be positive and finite, got -inf",
                 id="flag-s-minus-inf"),
]


@pytest.mark.parametrize("command,text,flags,line,message", NONFINITE_CONFIGS)
def test_nonfinite_numbers_rejected(tmp_path, capsys, command, text, flags, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert (f"bad.cfg:{line}: " in err) if line else ("bad.cfg" not in err)
    assert not out.exists()


@pytest.mark.parametrize("make, reason", [
    (None, "No such file or directory"),
    (Path.mkdir, "Is a directory"),
    (lambda path: path.write_bytes(b"s = 8\n\xff\n"), "codec can't decode byte 0xff"),
], ids=["missing", "directory", "undecodable"])
def test_unreadable_config_fails_labelled(tmp_path, capsys, make, reason):
    config = tmp_path / "c.cfg"
    if make:
        make(config)
    out = tmp_path / "out"
    assert run(["points", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: cannot read: ") and reason in err
    assert err.count("\n") == 1 and not out.exists()


def test_cli_imports_no_scipy():
    # scipy is a test dependency: the program's FFTs and resampling are numpy's;
    # numpy.random is not loaded either: both seeded draws take random.Random
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'src'); import modelsets.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    for path in sorted((root / "src").rglob("*.py")):
        assert "scipy" not in path.read_text(), path


def test_seeded_commands_load_no_numpy_random(tmp_path):
    # both seeded draws take random.Random(seed): solve and verify leave
    # numpy.random unloaded, and a second process with the same seed writes
    # the same summary and report
    root = Path(__file__).resolve().parents[1]
    texts = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        code = ("import sys; sys.path.insert(0, 'src'); from modelsets import cli; "
                f"out = {str(run_dir)!r}; "
                "assert cli.main(['solve', '--preset', 'penrose-example2', '--h', '0.03125', "
                "'--out', out]) == 0; "
                "assert cli.main(['verify', '--preset', 'penrose-example2', '--h', '0.03125', "
                "'--out', out]) == 0; "
                "print('numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], cwd=root,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        texts.append([(run_dir / name).read_bytes() for name in ("summary.txt", "report.txt")])
    assert texts[0] == texts[1]


def test_tracer_installs():
    # the benchmark tracer wraps functions by name; a removed name breaks it
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = ['perfbench', 'src']; "
            "from tracer import Tracer, install; install(Tracer('t'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_tracer_counts_match_points_csv(tmp_path):
    # the tracer counts generate_all's points as the sum of len() per component
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = ['perfbench', 'src']; "
            "from tracer import Tracer, install; from modelsets import cli; "
            "t = Tracer('t'); install(t); "
            f"assert cli.main(['points', '--s', '10', '--out', {str(tmp_path)!r}]) == 0; "
            "print(t.counts['scheme.generate_all.points'])")
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "points.csv").read_text().strip().split("\n")[1:]
    assert int(done.stdout) == len(rows) > 0


def test_ghost_transition_fails_before_output(tmp_path, capsys):
    config = tmp_path / "ghost.cfg"
    config.write_text(
        "nu_policy = explicit\n"
        "nu_row1 = 0.5 0 0.1 0.5\n"   # weight on the empty (1,3) window
        "nu_row2 = 0.25 0.25 0.25 0.25\n"
        "nu_row3 = 0.25 0.25 0.25 0.25\n"
        "nu_row4 = 0.5 0 0 0.5\n")
    out = tmp_path / "out"
    assert run(["solve", "--config", str(config), "--out", str(out),
                "--h", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "ghost transition" in err and "weight matrix" in err
    assert not out.exists() or not os.listdir(out)


IDENTITY_NU = ("nu_policy = explicit\n"
               "nu_row1 = 1 0 0 0\n"
               "nu_row2 = 0 1 0 0\n"
               "nu_row3 = 0 0 1 0\n"
               "nu_row4 = 0 0 0 1\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_simple_perron_root_fails_before_output(tmp_path, capsys, command):
    # with nu = I every mass vector is fixed, so no invariant density is unique
    config = tmp_path / "identity.cfg"
    config.write_text(IDENTITY_NU)
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--out", str(out), "--h", "0.0625"]) == 2
    err = capsys.readouterr().err
    assert "failed at stage 'eigenpair'" in err and "not simple" in err
    assert not out.exists() or not os.listdir(out)


def test_nu_reports_a_non_simple_perron_root(tmp_path):
    config = tmp_path / "identity.cfg"
    config.write_text(IDENTITY_NU)
    out = tmp_path / "out"
    assert run(["nu", "--config", str(config), "--out", str(out)]) == 0
    assert "simple = false\n" in (out / "pf.txt").read_text()


@pytest.mark.parametrize("command, preset, h, window, cells", [
    ("solve", "penrose-example1", "5", 2, 1),  # a 1 x 1 grid
    ("verify", "penrose-example1", "5", 2, 1),
    ("solve", "penrose-example2", "0.25", 1, 54),
    ("verify", "penrose-example2", "1", 1, 9),
])
def test_unresolved_grid_fails_before_output(tmp_path, capsys, command, preset, h, window,
                                             cells):
    out = tmp_path / "out"
    assert run([command, "--preset", preset, "--h", h, "--out", str(out)]) == 2
    assert (f"failed at stage 'kernel': unresolved grid: window {window} meets {cells} "
            f"cells, fewer than 64") in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_solve_example1_summary(tmp_path):
    out = tmp_path / "s1"
    assert run(["solve", "--preset", "penrose-example1", "--h", "0.03125",
                "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "w = 0 0.5 0.5 0\n" in summary
    assert "lambda = 1\n" in summary
    residuals = [float(v) for v in
                 [line for line in summary.split("\n")
                  if line.startswith("residuals = ")][0].split()[2:]]
    assert all(residuals[k + 1] < residuals[k] for k in range(5, len(residuals) - 1))
    for j in range(1, 5):
        assert (out / f"density_ch{j}.txt").exists()
    assert (out / "density.csv").read_text().startswith("x,y,f1,f2,f3,f4\n")
    for name, digest in SOLVE_EX1_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("selector,names", [
    ("grids", [f"density_ch{j}.txt" for j in range(1, 5)]),
    ("csv", ["density.csv"]),
])
def test_solve_output_selectors(tmp_path, selector, names):
    # each selector writes only its own density files, with the bytes of a full run
    config = tmp_path / "sel.cfg"
    config.write_text(f"outputs = {selector}\n")
    out = tmp_path / "out"
    assert run(["solve", "--preset", "penrose-example1", "--config", str(config),
                "--h", "0.03125", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(names + ["nu.txt", "pf.txt", "summary.txt"])
    for name in names + ["summary.txt"]:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == SOLVE_EX1_SHA256[name], name


def test_solve_draws_wavevectors_until_k_count_lie_in_the_disk(tmp_path, monkeypatch):
    # seed 55's first batch of 4 k_count = 4 points misses the disk of radius
    # k_max = 10, so the draw goes on to a second batch and takes its first
    # point in the disk; each coordinate is 53 bits of random.Random(seed)
    rng = random.Random(55)

    def batch():
        unit = (np.frombuffer(rng.randbytes(64), "<u8") >> 11) * 2.0**-53
        return 10 * (2 * unit.reshape(4, 2) - 1)

    first, second = batch(), batch()
    assert (np.hypot(first[:, 0], first[:, 1]) > 10).all()
    drawn, compare_solvers = [], refine.compare_solvers

    def compare(density, problem, ks):
        drawn.append(ks)
        return compare_solvers(density, problem, ks)

    monkeypatch.setattr(refine, "compare_solvers", compare)
    config = tmp_path / "k1.cfg"
    config.write_text("seed = 55\nk_count = 1\n")
    out = tmp_path / "out"
    assert run(["solve", "--preset", "penrose-example2", "--config", str(config),
                "--h", "0.03125", "--out", str(out)]) == 0
    assert "fourier_max_rel_dev = " in (out / "summary.txt").read_text()
    inside = second[np.hypot(second[:, 0], second[:, 1]) <= 10]
    assert drawn[0].tobytes() == inside[:1].tobytes()


def oracle_wavevectors(seed, k_count, k_max):
    """The draw as one loop: whole batches of 4 k_count points from one
    randbytes call each, kept in the disk, until k_count lie in it."""
    rng, ks = random.Random(seed), np.empty((0, 2))
    while len(ks) < k_count:
        unit = (np.frombuffer(rng.randbytes(64 * k_count), "<u8") >> 11) * 2.0**-53
        batch = k_max * (2.0 * unit.reshape(-1, 2) - 1.0)
        ks = np.concatenate([ks, batch[np.hypot(batch[:, 0], batch[:, 1]) <= k_max]])
    return ks[:k_count]


@pytest.mark.parametrize("draw_points", [None, 7])
@pytest.mark.parametrize("seed", [0, 1, 55, 2**40 + 3])
@pytest.mark.parametrize("k_count", [1, 7, 50, 5000, 20000])
def test_wavevector_draw_matches_whole_batch_oracle(monkeypatch, draw_points, seed, k_count):
    # at most _DRAW_POINTS whole points per randbytes call read the same bits
    # as whole batches of 4 k_count: with the constant as it is (None), only
    # k_count 20000 splits its batches, and with 7 every k_count does
    if draw_points is not None:
        monkeypatch.setattr(cli, "_DRAW_POINTS", draw_points)
    k_max = 1e150 if seed == 1 else 10.0
    got = cli._draw_wavevectors(seed, k_count, k_max)
    assert got.shape == (k_count, 2)
    assert got.tobytes() == oracle_wavevectors(seed, k_count, k_max).tobytes()


@pytest.mark.parametrize("command,target,error,message", [
    ("solve", "modelsets.refine.build_kernel",
     MemoryError("Unable to allocate 3.36 TiB for an array"),
     "failed at stage 'kernel': Unable to allocate 3.36 TiB for an array"),
    ("solve", "modelsets.refine.build_kernel", MemoryError(),
     "failed at stage 'kernel': out of memory"),
    ("points", "modelsets.scheme.generate_all", MemoryError(),
     "failed at stage 'enumeration': out of memory"),
    ("windows", "modelsets.scheme.transition_windows", MemoryError(),
     "failed at stage 'transition windows': out of memory"),
    ("nu", "modelsets.pfsolve.pf_eigen", MemoryError(),
     "failed at stage 'eigenpair': out of memory"),
    ("solve", "modelsets.refine.compare_solvers", MemoryError(),
     "failed at stage 'solver comparison': out of memory"),
    ("verify", "modelsets.scheme.translation_sets", MemoryError(),
     "failed at stage 'enumeration': out of memory"),
    ("verify", "modelsets.verify.id3_values", MemoryError(),
     "failed at stage 'verification': out of memory"),
], ids=["kernel", "kernel-no-message", "points", "windows", "nu", "solver-comparison",
        "verify-enumeration", "verification"])
def test_out_of_memory_fails_before_output(tmp_path, capsys, monkeypatch, command, target,
                                           error, message):
    # a stand-in for an allocation that fails: a real one of that size can
    # succeed under memory overcommit, and touching it gets the process killed
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out"
    assert run([command, "--preset", "penrose-example1", "--h", "0.03125",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_failure_mid_write_leaves_no_output(tmp_path, capsys, monkeypatch):
    # the CSV runs out of memory after its header and first row block, while
    # every file is open under its temporary name; none of them, and no file
    # of an earlier run, may be left behind or touched
    write_density = refine.write_density
    written = []

    def fails_after_first_block(density, grid_files, csv_file):
        def write(text):
            if len(written) == 2:
                raise MemoryError
            written.append(csv_file.write(text))

        write_density(density, grid_files, SimpleNamespace(write=write))

    monkeypatch.setattr(refine, "write_density", fails_after_first_block)
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.txt").write_text("from an earlier run\n")
    assert run(["solve", "--preset", "penrose-example1", "--h", "0.015625",
                "--out", str(out)]) == 2
    assert "failed at stage 'output': out of memory" in capsys.readouterr().err
    assert len(written) == 2 and written[1] > 0
    assert os.listdir(out) == ["summary.txt"]
    assert (out / "summary.txt").read_text() == "from an earlier run\n"


def test_unwritable_output_fails_labelled(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert run(["windows", "--out", str(out)]) == 2
    assert "failed at stage 'output'" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    # the shift rounds every vertex of window 1 to the same point (1e300 + x
    # == 1e300), before any erosion or the enumeration's search ellipsoid of
    # internal radius 1e300
    *[(command, "gamma = 1e300, 0\n", "config error: {config}:1: gamma: shifting window 1 "
       "by it changes its area from 2.37764129074 to 0\n")
      for command in ("points", "windows", "nu", "solve", "verify")],
    # the squares of these coordinates overflow in the polygon's own checks
    ("windows", "scheme = inline\nwindow1 = 1e200,0; 2e200,0; 1e200,1e200\n",
     "config error: {config}:2: window1: coordinates must be at most 1e+150 in size"),
], ids=["huge-gamma", "huge-gamma-windows", "huge-gamma-nu", "huge-gamma-solve",
        "huge-gamma-verify", "huge-window"])
def test_huge_numbers_fail_labelled_without_warnings(tmp_path, capsys, command, text,
                                                     message):
    config = tmp_path / "huge.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--s", "8", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message.format(config=config) in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("preset", ["penrose-example1", "penrose-example2"])
@pytest.mark.parametrize("gamma", ["2, 0", "3, -4", "50, 0", "1000, 0", "-1000, 700"])
def test_solve_with_a_far_gamma(tmp_path, preset, gamma):
    # the transition windows sit near T_ji + (1 - a) gamma, about 1.618 |gamma|
    # from the origin, off the grid; they are rasterized where they fall on its
    # lattice, so the grid frames the windows alone, 109 cells a side at h = 1/32
    config = tmp_path / "gamma.cfg"
    config.write_text(f"gamma = {gamma}\n")
    out = tmp_path / "out"
    assert run(["solve", "--preset", preset, "--config", str(config), "--h", "0.03125",
                "--out", str(out)]) == 0
    summary = dict(line.split(" = ") for line in
                   (out / "summary.txt").read_text().splitlines())
    assert float(summary["fourier_max_rel_dev"]) <= 5e-3
    assert (out / "density_ch1.txt").read_text().splitlines()[2] == "# nx 109 ny 109"


@pytest.mark.parametrize("command, flags", [("points", []), ("verify", ["--h", "0.03125"])],
                         ids=["points", "verify"])
def test_far_gamma_enumeration_is_refused(tmp_path, capsys, command, flags):
    # the internal disk of the enumeration reaches the windows 50 away, so its
    # ellipsoid holds about 7.5M candidates; it stops before allocating them
    config = tmp_path / "far.cfg"
    config.write_text("gamma = 50, 0\n")
    out = tmp_path / "out"
    assert run([command, "--s", "20", "--config", str(config), "--out", str(out)] + flags) == 2
    assert re.fullmatch(r"error: failed at stage 'enumeration': \d+ candidate points at radii "
                        rf"20 and 51.618 exceed the limit of {scheme.MAX_CANDIDATES}\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_fine_grid_is_refused_before_allocation(tmp_path, capsys):
    # under memory overcommit the 4.31 GiB of masks at h = 1e-4 could be
    # granted and the process killed later with no message
    out = tmp_path / "out"
    assert run(["solve", "--preset", "penrose-example1", "--h", "1e-4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: failed at stage 'kernel': a grid of 34001 x 34001 cells at h = 0.0001 "
        f"exceeds the limit of {refine.MAX_GRID_CELLS} cells\n")
    assert not out.exists()


def test_grid_past_the_side_clamp_is_refused_without_the_clamp(tmp_path, capsys):
    # at h = 1e-300 the grid is about 3.4e300 cells a side, past the 2^64 + 1
    # to which make_centered_grid clamps it; the message names no clamped size
    out = tmp_path / "out"
    assert run(["solve", "--preset", "penrose-example1", "--h", "1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: failed at stage 'kernel': a grid of more than 2^64 x 2^64 cells at "
                   f"h = 1e-300 exceeds the limit of {refine.MAX_GRID_CELLS} cells\n")
    assert str(2**64 + 1) not in err
    assert not out.exists()


CHILD_ADDRESS_SPACE = 3 * 2**29  # 1.5 GiB, room for numpy and OpenBLAS to load


def limited_address_space():
    # runs in the child between fork and exec, so the limit holds for it alone
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)


@pytest.mark.parametrize("args, config, code, err, files", [
    (["solve", "--preset", "penrose-example1", "--h", "1e-4"], None, 2,
     "error: failed at stage 'kernel': a grid of 34001 x 34001 cells at h = 0.0001 "
     f"exceeds the limit of {refine.MAX_GRID_CELLS} cells\n", set()),
    (["points", "--s", "8"], "gamma = 300, 0\n", 2,
     "error: failed at stage 'enumeration': 41119901 candidate points at radii 8 and "
     f"301.618 exceed the limit of {scheme.MAX_CANDIDATES}\n", set()),
    # 100 wavevectors are two chunks of the Fourier product's 64
    (["solve", "--preset", "penrose-example1", "--h", "0.03125"],
     "k_count = 100\nk_max = 1e150\n", 0, "",
     {*(f"density_ch{j}.txt" for j in range(1, 5)), "density.csv", "nu.txt", "pf.txt",
      "summary.txt"}),
], ids=["fine-h", "far-gamma", "wavevector-chunks"])
def test_size_table_rows_under_an_address_space_limit(tmp_path, args, config, code, err,
                                                      files):
    # rows of the size table, each in a child whose address space is capped: a
    # refused size exits 2 with its stage and writes nothing, and an admitted
    # one runs to the end within the cap
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "row.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "row.cfg")]
    code_text = ("import sys; sys.path.insert(0, 'src'); from modelsets import cli; "
                 f"sys.exit(cli.main({args + ['--out', str(out)]!r}))")
    done = subprocess.run([sys.executable, "-c", code_text], cwd=root, capture_output=True,
                          text=True, preexec_fn=limited_address_space,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (done.returncode, done.stderr) == (code, err)
    assert set(os.listdir(out) if out.exists() else ()) == files


@pytest.mark.parametrize("preset, bound_mib", [("penrose-example1", 9.5),
                                               ("penrose-example2", 17.0)])
def test_solve_stage_peak_memory(preset, bound_mib):
    # the tracemalloc peak of build, solve and unpack as verify runs them at
    # h = 1/128: 11.16 and 19.59 MiB while the kernel kept its spectra,
    # stencils, blocks and coarse level through the unpack and each step held
    # a full-size product sum, 10.31 and 17.85 MiB once the solve released
    # them, and 8.95 and 16.50 MiB once each sum also overwrote a finished
    # input spectrum
    assert solve_stage_peak(preset) <= bound_mib * 2**20


@pytest.mark.parametrize("preset, bound_mib", [("penrose-example1", 8.4),
                                               ("penrose-example2", 14.5)])
def test_solve_stage_holds_half_kernel_spectra(preset, bound_mib):
    # the peak test_solve_stage_peak_memory bounds, now that under the row
    # mirror each kernel spectrum holds only its rows up to n // 2: it reads
    # 7.75 and 13.02 MiB, and 8.91 and 16.53 MiB with every row held
    assert solve_stage_peak(preset) <= bound_mib * 2**20


def solve_stage_peak(preset):
    """The tracemalloc peak, in bytes, of build, solve and unpack as verify runs
    them at h = 1/128."""
    cfg = cli.build_config(SimpleNamespace(preset=preset, config=None, s=None, h=1 / 128,
                                           tol=None))
    trans, nu, pf = cli._eigenpair(cfg)
    tracemalloc.start()
    try:
        cli._solve(cfg, trans, nu, pf)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def inline_penrose(q):
    """The Penrose windows and cosets as an inline scheme with multiplier q."""
    lines = ["scheme = inline", f"q = {' '.join(map(str, q))}"]
    for k, window in enumerate(scheme.penrose_scheme().windows, start=1):
        # plain floats: a numpy scalar's repr does not parse
        vertices = "; ".join(f"{float(x)!r}, {float(y)!r}" for x, y in window.vertices)
        lines += [f"window{k} = {vertices}", f"coset{k} = {k} 0 0 0"]
    return "\n".join(lines) + "\n"


STAGES = ("transition windows", "weight matrix", "eigenpair", "kernel", "fixed point",
          "solver comparison", "enumeration", "verification", "output")


def run_quiet(args):
    """cli.main(args) with stdout dropped and stderr captured: (exit code, stderr text)."""
    with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
        code = run(args)
    return code, err.getvalue()


def assert_one_labelled_line(err, config):
    # a config error names the file, and its line where the value has one; a
    # failure after the configuration names its stage
    stages = "|".join(map(re.escape, STAGES))
    assert re.fullmatch(rf"config error: {re.escape(str(config))}(:\d+)?: .+\n"
                        rf"|error: failed at stage '({stages})': .+\n", err), err


@settings(derandomize=True, max_examples=20, deadline=None)
@given(q=st.tuples(*[st.integers(-3, 3)] * 4))
@example(q=(0, 0, -1, -1))  # tau, the Penrose multiplier
@example(q=(-3, -3, -1, 1))  # norm 11: passes every stage before the kernel
@example(q=(2, 0, 0, 0))  # not contractive: SchemeSpec's check, once unlabelled
def test_inline_q_solves_only_for_a_unit(q):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "q.cfg", Path(tmp) / "out"
        config.write_text(inline_penrose(q))
        code, err = run_quiet(["solve", "--config", str(config), "--h", "0.03125",
                               "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert_one_labelled_line(err, config)
            assert not out.exists()
        if q == (2, 0, 0, 0):
            assert err == (f"config error: {config}:2: q: the internal image of the "
                           "similarity must be contractive, got modulus 2\n")
    unit = round(abs(np.linalg.det(CycInt(*q).mult_matrix()))) == 1
    assert unit or code == 2
    if q == (0, 0, -1, -1):
        assert code == 0
    if q == (-3, -3, -1, 1):
        assert err == ("error: failed at stage 'kernel': determinant mismatch: "
                       "|det A| * |det Q| = 11, not 1; q must be a unit\n")


@pytest.mark.parametrize("command", ["windows", "points", "nu", "solve", "verify"])
def test_inline_q_unresolved_by_the_embedding_refused(tmp_path, capsys, command):
    # tau^60, a unit with |q*| = 2.89e-13: the float embedding's rounding,
    # about 4 eps sum |m_k| = 3.6e-3, swamps q*, which reads 1.83e-4; every
    # command refuses q at its line instead of building windows from that value
    config, out = tmp_path / "q.cfg", tmp_path / "out"
    config.write_text(inline_penrose((956722026041, 0, -1548008755920, -1548008755920)))
    assert run([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: {config}:2: q: the float embedding does not resolve the internal "
        "image of the similarity: its rounding bound 0.00359955579821 exceeds 1e-09 times "
        "its modulus 0.00018310546875\n")
    assert captured.out == "" and not out.exists()


# values of each key in cli.KEYS that the contract property draws from: its
# default and boundaries, and ones that fail a stage (h = 5 leaves a window
# unresolved, maxit = 1 stops the solve short); ANY_VALUES then puts tiny,
# subnormal, huge, non-finite or non-numeric text into one key.  The work
# sizes stay small so a run is cheap: s and closure_s at most 8 (or so large
# that enumeration refuses at once), h at least 1/32 (or so small that the
# grid is refused before it is allocated), and no large maxit or k_count
OWN_VALUES = {
    "scheme": ["penrose", "inline"],
    "nu_policy": ["area-markov", "explicit"],
    "gamma": ["0, 0", "0.031, -0.047", "2, -3", "-1e3, 1e3", "1e-300, 0"],
    "boundary": ["closed", "open"],
    "s": ["8", "3", "1"],
    "h": ["0.03125", "0.0625", "5", "1e300"],
    "tol": ["1e-8", "1e-3", "1e300"],
    "maxit": ["1", "200"],
    "closure_s": ["5", "1", "8"],
    "id2_samples": ["1", "100", "1000000000000"],
    "seed": ["0", "1", "18446744073709551616"],
    "k_count": ["1", "25"],
    "k_max": ["10", "1e-300", "1e150"],
    "outputs": ["grids", "csv", "grids, csv"],
}
ANY_VALUES = ["0", "-1", "1e-300", "5e-324", "1e308", "nan", "inf", "-inf", "x", "1, 2", ""]
# texts of one nu_row<j> line: a row of example 2, four 0.25s, a negative
# entry and a row of the wrong length; the rows are drawn with a policy, and
# under area-markov they are a config error
NU_ROWS = ["0.5 0 0 0.5", "0.25 0.25 0.25 0.25", "0.5 0.5 -0.5 0.5", "0.5 0.5 0.5"]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(command=st.sampled_from(["windows", "points", "nu", "solve", "verify"]),
       preset=st.sampled_from([None, *sorted(cli.PRESETS)]),
       config=st.fixed_dictionaries({}, optional={key: st.sampled_from(values)
                                                  for key, values in OWN_VALUES.items()}),
       nu_rows=st.none() | st.tuples(st.sampled_from(OWN_VALUES["nu_policy"]),
                                     st.lists(st.sampled_from(NU_ROWS), min_size=4, max_size=4)),
       bad=st.none() | st.tuples(st.sampled_from(sorted(cli.KEYS)), st.sampled_from(ANY_VALUES)))
# an OverflowError traceback drawing the Fourier wavevectors, and from 1e154
# an overflow warning squaring them, until k_max was held to 1e150
@example(command="solve", preset=None, config={}, nu_rows=None, bad=("k_max", "1e308"))
# an OverflowError traceback sizing the grid, as h / extent is infinite
@example(command="solve", preset=None, config={}, nu_rows=None, bad=("h", "5e-324"))
# the far-gamma verify: the solve passes, and enumeration refuses the
# 34M-candidate ellipsoid around the windows 1000 away
@example(command="verify", preset="penrose-example2", config={"gamma": "1e3, 0"},
         nu_rows=None, bad=None)
# example 2's weights given row by row instead of by its preset
@example(command="solve", preset=None, config={},
         nu_rows=("explicit", [NU_ROWS[0], NU_ROWS[1], NU_ROWS[1], NU_ROWS[0]]), bad=None)
# rows that no policy reads, which points and windows once ignored
@example(command="points", preset=None, config={}, nu_rows=("area-markov", [NU_ROWS[1]] * 4),
         bad=None)
# example 2 under the file's area policy, once refused at stage 'weight matrix'
@example(command="nu", preset="penrose-example2", config={"nu_policy": "area-markov"},
         nu_rows=None, bad=None)
def test_cli_contract(command, preset, config, nu_rows, bad):
    # exit 0, 1 (a verify FAIL) or 2; exit 2 prints one labelled line and
    # writes nothing; any other run writes the same bytes twice
    if nu_rows:
        config = {**config, "nu_policy": nu_rows[0],
                  **{f"nu_row{j}": row for j, row in enumerate(nu_rows[1], start=1)}}
    if bad:
        config = {**config, bad[0]: bad[1]}
    flags = ["--preset", preset] if preset else []
    flags += [] if "s" in config else ["--s", "8"]
    flags += [] if "h" in config else ["--h", "0.03125"]
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        for attempt in range(2):
            out = Path(tmp) / f"out{attempt}"
            code, err = run_quiet([command, "--config", str(path), "--out", str(out)] + flags)
            assert code in (0, 1, 2) and (code != 1 or command == "verify")
            if code == 2:  # and so on the first run, as the second repeats it
                assert attempt == 0
                assert_one_labelled_line(err, path)
                assert not out.exists()
                return
            assert err == ""
            written.append({name: (out / name).read_bytes() for name in os.listdir(out)})
    assert written[0] == written[1] and written[0]


def test_solve_maxit_exhaustion_fails_before_output(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("maxit = 3\n")
    out = tmp_path / "out"
    assert run(["solve", "--preset", "penrose-example2", "--config", str(config),
                "--h", "0.03125", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "failed at stage 'fixed point'" in err and "did not reach tol" in err
    assert not out.exists() or not os.listdir(out)


def test_solve_deterministic(tmp_path):
    # the same configuration writes the same bytes, mixing solve included
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["solve", "--preset", "penrose-example2", "--h", "0.03125",
                    "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "summary.txt" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solve_example2_positive_peaks(tmp_path):
    out = tmp_path / "s2"
    assert run(["solve", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(out)]) == 0
    grids = []
    for j in range(1, 5):
        lines = (out / f"density_ch{j}.txt").read_text().strip().split("\n")
        grids.append(np.array([[float(v) for v in row.split()] for row in lines[3:]]))
        assert grids[-1].max() > 0
    # the point-reflection quotient writes channels 4 and 3 as 1 and 2 flipped
    assert np.array_equal(grids[3], grids[0][::-1, ::-1])
    assert np.array_equal(grids[2], grids[1][::-1, ::-1])


def test_solve_example2_pinned_bytes(tmp_path):
    out = tmp_path / "s2"
    assert run(["solve", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(SOLVE_EX2_SHA256)
    for name, digest in SOLVE_EX2_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_solve_example2_shifted_gamma_pinned_bytes(tmp_path):
    # the general solve is pinned too
    config = tmp_path / "gamma.cfg"
    config.write_text("gamma = 0.031, -0.047\n")
    out = tmp_path / "s2g"
    assert run(["solve", "--preset", "penrose-example2", "--config", str(config),
                "--h", "0.03125", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(SOLVE_EX2_GAMMA_SHA256)
    for name, digest in SOLVE_EX2_GAMMA_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_solve_example2_pinned_bytes_at_full_size(tmp_path):
    out = tmp_path / "s2"
    assert run(["solve", "--preset", "penrose-example2", "--h", "0.0078125",
                "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(SOLVE_EX2_H128_SHA256)
    for name, digest in SOLVE_EX2_H128_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_solve_bytes_hold_across_blas_threads_and_kernels(tmp_path):
    # the solve's sums and samples, the window geometry, the Fourier product
    # and the enumeration's embedding are formed elementwise, and what still
    # reaches BLAS or LAPACK (the 4x4 eigensolve, the grid transform) moves
    # no written byte, so one configuration writes the same bytes at one and
    # two OpenBLAS threads and under each OpenBLAS kernel the CPU runs:
    # SkylakeX where numpy reports AVX-512, Haswell where it reports AVX2 and
    # FMA3 (the kernel OpenBLAS picks without AVX-512) and Sandybridge where
    # it reports AVX (no FMA).  Each child sets its kernel itself, so an
    # inherited OPENBLAS_CORETYPE cannot decide it, and runs a solve,
    # `windows` and `points` at a generic gamma; each run is a child, since
    # OpenBLAS reads these settings when it loads
    from numpy._core._multiarray_umath import __cpu_features__ as features
    needs = {"SkylakeX": ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL"),
             "Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}
    kernels = [k for k, flags in needs.items() if all(features.get(f) for f in flags)]
    base = {n: v for n, v in os.environ.items() if n != "OPENBLAS_CORETYPE"}
    pick = {"OPENBLAS_CORETYPE": kernels[0]} if kernels else {}  # none: OpenBLAS's own pick
    envs = [{**pick, "OPENBLAS_NUM_THREADS": "1"}, {**pick, "OPENBLAS_NUM_THREADS": "2"}]
    envs += [{"OPENBLAS_CORETYPE": k, "OPENBLAS_NUM_THREADS": "1"} for k in kernels[1:]]
    gamma = tmp_path / "gamma.cfg"
    gamma.write_text("gamma = 0.031, -0.047\n")
    commands = {"solve": ["solve", "--preset", "penrose-example2", "--h", "0.0078125"],
                "windows": ["windows"], "points": ["points", "--s", "20", "--config", str(gamma)]}
    root = Path(__file__).resolve().parents[1]
    written = []
    for n, env in enumerate(envs):
        runs = [args + ["--out", str(tmp_path / str(n) / name)] for name, args in commands.items()]
        code = ("import sys; sys.path.insert(0, 'src'); from modelsets import cli; "
                f"sys.exit(max([cli.main(args) for args in {runs!r}]))")
        done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, env={**base, **env})
        assert (done.returncode, done.stderr) == (0, ""), env
        written.append({(name, f): (tmp_path / str(n) / name / f).read_bytes()
                        for name in commands for f in os.listdir(tmp_path / str(n) / name)})
    assert sorted(f for name, f in written[0] if name == "solve") == sorted(SOLVE_EX2_H128_SHA256)
    assert sorted(f for name, f in written[0] if name != "solve") == \
        ["areas.txt", "points.csv", "windows.txt"]
    for env, files in zip(envs[1:], written[1:]):
        moved = sorted(key for key in files.keys() | written[0].keys()
                       if files.get(key) != written[0].get(key))
        assert moved == [], env


def nu_rows(matrix):
    return "".join(f"nu_row{j} = {' '.join(map(str, row))}\n"
                   for j, row in enumerate(matrix, start=1))


# configurations refused before any output, each with its whole message: a
# config error names the file, and its line where the value has one; a stage
# error names the stage.  The spectral radius (example 2's weights times 1.5)
# is printed as `%.12g`, so its text is the same under every OpenBLAS kernel,
# though the last bit of LAPACK's eigenvalue is not
INLINE_WINDOW = "scheme = inline\nwindow1 = 0,0;1,0;0,1\n"
REFUSALS = [
    pytest.param(" = 5\n", "config error: {path}:1: empty key", id="empty-key"),
    pytest.param("scheme = inline\nq = 0 0 -1 -1\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1.5 0 0 0\n",
                 "config error: {path}:4: coset1: expected integers, got '1.5 0 0 0'",
                 id="coset-not-integer"),
    pytest.param(INLINE_WINDOW, "config error: {path}: missing coset1", id="missing-coset"),
    pytest.param(INLINE_WINDOW + "coset1 = 1 0 0 0\n",
                 "config error: {path}: inline scheme needs q = m0,m1,m2,m3", id="missing-q"),
    pytest.param(nu_rows(cli.EXAMPLE2_MATRIX),
                 "config error: {path}:1: 'nu_row1' needs nu_policy = explicit",
                 id="matrix-under-area-policy"),
    pytest.param("nu_policy = explicit\n" + nu_rows(1.5 * np.array(cli.EXAMPLE2_MATRIX)),
                 "error: failed at stage 'eigenpair': spectral radius 1.5 is not 1",
                 id="radius-not-one"),
]


@pytest.mark.parametrize("text, message", REFUSALS)
def test_refusal_messages(tmp_path, capsys, text, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(["solve", "--config", str(config), "--h", "0.03125", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message.format(path=config) + "\n"
    assert not out.exists()


def verify_example2_report(out):
    assert run(["verify", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(out)]) == 0
    return hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()


def test_verify_example2_pinned_report(tmp_path):
    assert verify_example2_report(tmp_path / "v") == VERIFY_EX2_REPORT_SHA256


@pytest.mark.parametrize("name", sorted(VERIFY_EX2_VARIANT_SHA256))
def test_verify_example2_variant_pinned_report(tmp_path, name):
    flags, text, code, digest = VERIFY_EX2_VARIANT_SHA256[name]
    if text is not None:
        config = tmp_path / "variant.cfg"
        config.write_text(text)
        flags = flags + ["--config", str(config)]
    out = tmp_path / "v"
    assert run(["verify", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(out)] + flags) == code
    assert hashlib.sha256((out / "report.txt").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, code, radius", [([], 0, 40.0), (["--s", "3"], 1, 5.0)],
                         ids=["default-s", "s3"])
def test_verify_enumerates_one_patch(tmp_path, monkeypatch, flags, code, radius):
    # one sweep for the points and one for the translations, both at
    # max(s, closure_s), whichever of the two radii is larger
    radii = []
    enumerate_module = scheme._enumerate_module

    def counted(radius_phys, radius_internal):
        radii.append(radius_phys)
        return enumerate_module(radius_phys, radius_internal)

    monkeypatch.setattr(scheme, "_enumerate_module", counted)
    assert run(["verify", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(tmp_path / "v")] + flags) == code
    assert radii == [radius, radius]


def test_solve_reaches_the_refinement_operations_by_name(tmp_path, monkeypatch):
    # the solve and its Fourier check call refine's public names, so a wrapper
    # of those names (as the benchmark's tracer installs) sees every call; at
    # this h the kernel has no coarse level, so each step is a fine one
    calls = dict.fromkeys(["apply_refinement", "fourier_product", "polygon_ft"], 0)
    for name in calls:
        def counted(*args, _name=name, _call=getattr(refine, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(refine, name, counted)
    out = tmp_path / "s1"
    assert run(["solve", "--preset", "penrose-example1", "--h", "0.03125",
                "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    iterations = int(re.search(r"^iterations = (\d+)$", summary, re.M)[1])
    assert calls == {"apply_refinement": iterations, "fourier_product": 1, "polygon_ft": 1}


def test_verify_runs_no_fourier_check(tmp_path, monkeypatch):
    # the report has no Fourier line, so verify must not compute the deviation
    def forbidden(*args, **kwargs):
        raise AssertionError("verify ran the Fourier cross-check")

    for name in ("compare_solvers", "grid_ft", "fourier_product"):
        monkeypatch.setattr(f"modelsets.refine.{name}", forbidden)
    assert verify_example2_report(tmp_path / "v") == VERIFY_EX2_REPORT_SHA256


def test_readme_key_table_matches_config_keys():
    # the README's key table lists exactly the keys build_config reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    keys = re.findall(r"^\| `([^`]+)` \|", table.split("\n\n", 1)[0], re.M)
    plain = {key for key in keys if "<" not in key}
    indexed = {key for key in keys if "<" in key}
    assert len(keys) == len(plain) + len(indexed) == len(set(keys))
    assert plain == set(cli.KEYS) | {"q"}
    assert {key.split("<")[0] for key in indexed} == {"window", "coset", "nu_row"}
    assert all(cli.INDEXED_KEY.fullmatch(key.split("<")[0] + "1") for key in indexed)


def test_verify_insufficient_radius(tmp_path, capsys):
    out = tmp_path / "v"
    code = run(["verify", "--preset", "penrose-example2", "--s", "1",
                "--h", "0.03125", "--out", str(out)])
    assert code == 1
    report = (out / "report.txt").read_text()
    assert "ID2.mean_residual insufficient-radius <= 0.05 FAIL" in report
    assert capsys.readouterr().out.count("\n") >= 4


@pytest.mark.parametrize("s", ["0.3", "0.6", "1e-200"])
def test_verify_no_points(tmp_path, s):
    # no component has a point within s, so WEYL, ID3 and DENSITY have
    # nothing to measure and fail, as ID2 does without translations
    out = tmp_path / "v"
    assert run(["verify", "--preset", "penrose-example2", "--s", s, "--h", "0.03125",
                "--out", str(out)]) == 1
    report = (out / "report.txt").read_text()
    assert "WEYL.comp1_deviation no-points <= 0 FAIL" in report
    assert "ID3.max_deviation no-points <= 0.05 FAIL" in report
    assert "DENSITY.ratio_max_reldev no-points <= 0.05 FAIL" in report


def test_verify_empty_closure(tmp_path, capsys):
    # no point of the patch lies within closure_s = 0.5, so CLOSURE checks no
    # map and fails with the reason, while the four checks read at s = 40
    # give the verdicts of the default run
    config = tmp_path / "closure.cfg"
    config.write_text("closure_s = 0.5\n")
    out = tmp_path / "v"
    assert run(["verify", "--preset", "penrose-example2", "--h", "0.03125",
                "--config", str(config), "--out", str(out)]) == 1
    report = (out / "report.txt").read_text()
    assert report in capsys.readouterr().out
    assert report.splitlines()[-1] == "CLOSURE.violations no-points <= 0 FAIL"
    verify_example2_report(tmp_path / "default")
    default = (tmp_path / "default" / "report.txt").read_text()
    assert report.splitlines()[:-1] == default.splitlines()[:-1]


def test_unknown_output_selector_rejected(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text("outputs = grid\n")
    out = tmp_path / "out"
    assert run(["solve", "--config", str(config), "--out", str(out),
                "--h", "0.05"]) == 2
    err = capsys.readouterr().err
    assert ":1:" in err and "'grid'" in err
    assert not out.exists()
