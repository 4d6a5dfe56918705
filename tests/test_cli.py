import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modelsets import cli, refine, scheme
from tests.conftest import TAU


# sha256 of the files `solve --preset penrose-example1 --h 0.03125` writes,
# as recorded with exact cell coverage, the point-reflection quotient,
# erosion by meeting edge lines, numpy's default inverse FFT scaling and
# nu-weighted kernel spectra with the mirror phase folded in on numpy
# 2.4.6; the bytes follow the last bit of every float, so they hold for one
# numpy build
SOLVE_EX1_SHA256 = {
    "density_ch1.txt": "4d8eeefa78f63fe3b5430edbf15690eabeffab227d41a3d058aaec6744e011ea",
    "density_ch2.txt": "e30d9b0eb5e4d1aab9906ce48adc900aef78302339e8049348cb889fd8e7067d",
    "density_ch3.txt": "fd9fedf51c6b03bdacc57ebe56050d3fe881b3b12740f3fe7073098c7cfc0291",
    "density_ch4.txt": "4d8eeefa78f63fe3b5430edbf15690eabeffab227d41a3d058aaec6744e011ea",
    "density.csv": "1db00c3589ae27015094d9dcd13457637648c06af2c63488fe26d17c94301041",
    "summary.txt": "ac0f4f720dc0968ae1177bbed1211a0c2e4577ffecb3c56849a5f0b44f2039e1",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.03125` writes,
# recorded like SOLVE_EX1_SHA256; here every channel and every kernel
# spectrum is live
SOLVE_EX2_SHA256 = {
    "density_ch1.txt": "8aafd865187c0659fff025b5f01ef8fae36e9f02c27c960fd0174f6c2e6baa38",
    "density_ch2.txt": "22968372ed8e05faeb8269d27ac439df6349cd894916e49844e55f6dda883205",
    "density_ch3.txt": "c2dc5d0e57a6561fa63f1cafb9fb0c9d680e8d1cc8fb22986f4d4c9cdd3104c0",
    "density_ch4.txt": "716316a7a38759be4b178a130bea844382fa85f1291a81e7faefec66c53ae592",
    "density.csv": "f0f531a8ae6a0020072594fa1904d1fcba02144b1aed4ba8450c22faabe09129",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "a122750482ea6ae43d7f4e4c43833613e7817711a1a17724fcb0a4963d244891",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.03125` writes
# with gamma = 0.031, -0.047, recorded like SOLVE_EX1_SHA256; the shifted
# windows are not point-symmetric, so this run takes the general solve
SOLVE_EX2_GAMMA_SHA256 = {
    "density_ch1.txt": "a7f53cc07a7da2b20823bab39a66d80e61dc513eb21cfdeb71b1a090054fbbf1",
    "density_ch2.txt": "1d5b48132353f8087a1605ba1c5f4676036328f14ee0a169db30d471c5b0e965",
    "density_ch3.txt": "874f2e0c3ac3350c31e0e646a3984809bc9091c9792bf7e36ea81047fdc73ab2",
    "density_ch4.txt": "374a70d05c05877f151fed6ac8ffe64fdf20a32a025af0c5abee8d79cd5aaedb",
    "density.csv": "e5b75ac38c276f203ec1be0c6d13cc2122cc41433ebcdb5a0bd47bae29e80493",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "b35d74d7e0c3c285e9926a2779e7863cedaa8942b28f7d035b835168ca14f345",
}

# sha256 of every file `solve --preset penrose-example2 --h 0.0078125` writes,
# recorded like SOLVE_EX1_SHA256: a 437 x 437 grid written in 7 row blocks,
# with two mirrored channel pairs, so block boundaries and the reversed
# reading of a mirrored channel's text both show in the bytes; the warm
# start's coarse level is 109 x 109 at h = 1/32, the smallest grid that
# covers the windows, transitions and supports there
SOLVE_EX2_H128_SHA256 = {
    "density_ch1.txt": "2bcf7c9ff5418b0c0a31fd877a2f0f8eae9821dc37b5c1fd347ba3a4f61f2d62",
    "density_ch2.txt": "250de872ec0cedb6cd47e961ee5b7639d17d8ac4d6d26f8e5f2eba41d21fea3e",
    "density_ch3.txt": "18ce28252d75cec3effcb1d06e0c7784e752f23b3128acd973a2e74c172ed34a",
    "density_ch4.txt": "0a0d90a17abf0e5fe9090b856d4cf1a5412f8ff1315dafca03b5f70fb39e185a",
    "density.csv": "48b00af4fe9e630c84f1b48dcd2935ff423043328ba085e51230cdd279ad5aec",
    "nu.txt": "85b263f1597f87502c52596e17f1c2b253602279b4a68346422131513cdc7695",
    "pf.txt": "78bd480a57b062d9be03b2e7672f0c0754dcc787e899b2eff52b6306a38857ba",
    "summary.txt": "bfa877992f9ddebc541301d74316aac4fba925d5b33140c05a8fbbbbb8ae5653",
}

# sha256 of the report.txt `verify --preset penrose-example2 --h 0.03125`
# writes, recorded like SOLVE_EX1_SHA256
VERIFY_EX2_REPORT_SHA256 = "5671f25cae32e7f8981a3db655f2f7eba949b3cced5263d45fc94ac25f26432f"

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
              "22dc8094761230e9119a73bc63c43971e6a5bbac4f59dbfb5c84bf0bc0e737ae"),
    "open": ([], "boundary = open\n", 0,
             "2d2730982ede5602250ddd1ce176cbfa2a85273affaaffd127624bf2ef813e76"),
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
    # component-1 pentagon plus its index-matched copies, spelled out inline
    def pent(scale, negate):
        pts = []
        for k in range(5):
            x = scale * math.cos(2 * math.pi * k / 5)
            y = scale * math.sin(2 * math.pi * k / 5)
            if negate:
                x, y = -x, -y
            pts.append(f"{x},{y}")
        return ";".join(pts)

    config = tmp_path / "inline.cfg"
    config.write_text(
        "scheme = inline\n"
        f"window1 = {pent(1, False)}\n"
        "coset1 = 1 0 0 0\n"
        f"window2 = {pent(TAU, True)}\n"
        "coset2 = 2 0 0 0\n"
        f"window3 = {pent(TAU, False)}\n"
        "coset3 = 3 0 0 0\n"
        f"window4 = {pent(1, True)}\n"
        "coset4 = 4 0 0 0\n"
        "q = 0 0 -1 -1\n")
    out = tmp_path / "w"
    assert run(["windows", "--config", str(config), "--out", str(out)]) == 0
    builtin = tmp_path / "builtin"
    assert run(["windows", "--out", str(builtin)]) == 0
    assert (out / "areas.txt").read_text() == (builtin / "areas.txt").read_text()


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
    # keys that would otherwise be accepted and never read: the key and its line
    ("s = 40\nwindowz = 1\n", 2, "bad.cfg:2: unknown key 'windowz'"),
    ("coset_shift = 2\n", 1, "bad.cfg:1: unknown key 'coset_shift'"),
    ("s = 40\nwindow7 = 0,0;1,0;0,1\n", 2, "bad.cfg:2: 'window7'"),
    ("q = 1,2,3,4\n", 1, "bad.cfg:1: 'q'"),
    ("scheme = inline\nwindow1 = 0,0;1,0;0,1\ncoset1 = 1 0 0 0\n"
     "window3 = 0,0;1,0;0,1\nq = 0 0 -1 -1\n", 4, "bad.cfg:4: 'window3'"),
    ("nu_row5 = 1 0 0 0\n", 1, "bad.cfg:1: 'nu_row5'"),
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
                 "k_max must be positive and finite, got inf", id="k_max-inf"),
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


def test_cli_imports_no_scipy():
    # scipy is a test dependency: the program's FFTs and resampling are numpy's
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'src'); import modelsets.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    for path in sorted((root / "src").rglob("*.py")):
        assert "scipy" not in path.read_text(), path


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


@pytest.mark.parametrize("command,target,error,message", [
    ("solve", "modelsets.refine.build_kernel",
     MemoryError("Unable to allocate 3.36 TiB for an array"),
     "failed at stage 'kernel': Unable to allocate 3.36 TiB for an array"),
    ("solve", "modelsets.refine.build_kernel", MemoryError(),
     "failed at stage 'kernel': out of memory"),
    ("points", "modelsets.scheme.generate_all", MemoryError(), "error: out of memory"),
    ("windows", "modelsets.scheme.transition_windows", MemoryError(),
     "failed at stage 'transition windows': out of memory"),
], ids=["kernel", "kernel-no-message", "points", "windows"])
def test_out_of_memory_fails_before_output(tmp_path, capsys, monkeypatch, command, target,
                                           error, message):
    # a stand-in for an allocation that fails: a real one of that size can
    # succeed under memory overcommit, and touching it gets the process killed
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out"
    assert run([command, "--preset", "penrose-example1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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
@pytest.mark.parametrize("gamma", ["2, 0", "3, -4"])
def test_solve_with_a_far_gamma(tmp_path, preset, gamma):
    # the transition windows sit near T_ji + (1 - a) gamma, about 1.618 |gamma|
    # from the origin, outside a grid fitted to the windows alone
    config = tmp_path / "gamma.cfg"
    config.write_text(f"gamma = {gamma}\n")
    out = tmp_path / "out"
    assert run(["solve", "--preset", preset, "--config", str(config), "--h", "0.03125",
                "--out", str(out)]) == 0
    summary = dict(line.split(" = ") for line in
                   (out / "summary.txt").read_text().splitlines())
    assert float(summary["fourier_max_rel_dev"]) <= 5e-3


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


def test_unknown_output_selector_rejected(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text("outputs = grid\n")
    out = tmp_path / "out"
    assert run(["solve", "--config", str(config), "--out", str(out),
                "--h", "0.05"]) == 2
    err = capsys.readouterr().err
    assert ":1:" in err and "'grid'" in err
    assert not out.exists()
