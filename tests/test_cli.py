import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modelsets import cli
from tests.conftest import TAU


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
    ("k_count = 0\n", "k_count"),
    ("k_max = 0\n", "k_max"),
    ("id2_samples = 0\n", "id2_samples"),
    ("supersample = 0\n", "supersample"),
    ("closure_s = -1\n", "closure_s"),
    ("tol = 0\n", "tol"),
    ("maxit = 0\n", "maxit"),
    ("s = 0\n", "s"),
    ("h = -0.01\n", "h"),
    ("k_count = many\n", "k_count"),
    ("boundary = fuzzy\n", "boundary"),
    ("nu_policy = magic\n", "nu_policy"),
    ("scheme = hexagonal\n", "scheme"),
    ("gamma = 0.1\n", "gamma"),
    ("nu_policy = explicit\n", "explicit"),
    ("nu_row1 = 1 0 0 0\n", "nu_row2"),
    ("seed = -1\n", "seed"),
]


@pytest.mark.parametrize("text,key", BAD_CONFIGS, ids=[key for _, key in BAD_CONFIGS])
def test_bad_config_table(tmp_path, capsys, text, key):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(["verify", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


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


def test_solve_example2_positive_peaks(tmp_path):
    out = tmp_path / "s2"
    assert run(["solve", "--preset", "penrose-example2", "--h", "0.03125",
                "--out", str(out)]) == 0
    for j in range(1, 5):
        lines = (out / f"density_ch{j}.txt").read_text().strip().split("\n")
        values = np.array([[float(v) for v in row.split()] for row in lines[3:]])
        assert values.max() > 0


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
