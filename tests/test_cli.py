"""Command-line behavior: configs, CSV artifacts, exit codes."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sphmax.cli import _pq_list, _scale_list, build_parser, load_config, main
from sphmax.errors import ConfigError

F = Fraction


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_scale_ladder_expansion():
    assert _scale_list("2^-4..2^-6", "s") == [F(1, 16), F(1, 32), F(1, 64)]
    assert _scale_list("3^-1..3^-2", "s") == [F(1, 3), F(1, 9)]
    assert _scale_list("1/2, 1/8", "s") == [F(1, 2), F(1, 8)]
    with pytest.raises(ConfigError):
        _scale_list("2^-4..3^-6", "s")
    with pytest.raises(ConfigError):
        _scale_list("2^-6..2^-4", "s")
    with pytest.raises(ConfigError):
        _scale_list("1/8, 1/4", "s")
    with pytest.raises(ConfigError):
        _scale_list("1^-2..1^-4", "s")


def test_pq_list_grammar():
    assert _pq_list("2:4, 3/2:3", "pq") == [(F(2), F(4)), (F(3, 2), F(3))]
    assert _pq_list("inf:inf", "pq") == [(math.inf, math.inf)]
    with pytest.raises(ConfigError):
        _pq_list("2;4", "pq")
    with pytest.raises(ConfigError):
        _pq_list("", "pq")


def test_config_rejected_atomically(tmp_path):
    cfg = write_cfg(tmp_path, """
[set]
expression = interval

[probe]
family = AnnulusDelta
d = 2
pq = 2:4
scales = 2^-4..2^-6
t0 = not-a-number
""")
    with pytest.raises(ConfigError, match="probe.t0"):
        load_config(cfg, None, None)
    cfg = write_cfg(tmp_path, "[set]\nexpression = interval\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(cfg, None, None)
    cfg = write_cfg(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(cfg, None, None)


def test_config_quadrature_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path, """
[quadrature]
rel_tol = 1e-7
abs_tol = 1e-11
max_refinement = 20

[output]
dir = from-config
""")
    config = load_config(cfg, None, None)
    assert config.quad.rel_tol == 1e-7
    assert config.quad.abs_tol == 1e-11
    assert config.quad.max_refinement == 20
    assert config.out_dir.name == "from-config"
    override = load_config(cfg, str(tmp_path / "cli-dir"), 1e-5)
    assert override.quad.rel_tol == 1e-5
    assert override.out_dir.name == "cli-dir"


# ---------------------------------------------------------------------------
# mean


def test_mean_reference_values(capsys):
    assert main(["mean", "3", "one", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
    assert main(["mean", "3", "pow(1,1,0,0,8)", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.333333"


STALLING_QUAD_CFG = """
[quadrature]
rel_tol = 1e-15
abs_tol = 1e-300
max_refinement = 2
"""


def test_mean_precision_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STALLING_QUAD_CFG)
    code = main(["mean", "3", "pow(1,-1,-1,1/1024,1/2)", "1", "1",
                 "--config", cfg])
    assert code == 4
    assert "precision error" in capsys.readouterr().err


def test_mean_domain_exit(capsys):
    assert main(["mean", "1", "one", "1", "1"]) == 3
    assert "domain error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dims


def test_dims_cantor_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[set]
expression = cantor(1/3, 10)

[dims]
scales = 3^-2..3^-8
""")
    out = tmp_path / "run"
    assert main(["dims", "--config", cfg, "--out", str(out)]) == 0
    summary = dict((k, v) for k, v in read_csv(out / "dims_summary.csv")[1:])
    assert abs(float(summary["beta_estimate"]) - math.log(2) / math.log(3)) < 0.05
    counts = read_csv(out / "dims_counts.csv")
    assert counts[0] == ["delta", "covering_number"]
    assert len(counts) == 8
    # 3-adic scales count the surviving construction cells exactly
    assert [int(n) for _, n in counts[1:]] == [2 ** k for k in range(2, 9)]

    manifest = dict((k, v) for k, v in read_csv(out / "manifest.csv")[1:])
    assert manifest["command"] == "dims"
    for name in ("dims_counts.csv", "dims_characteristics.csv",
                 "dims_summary.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert manifest[name] == digest


def test_dims_interval_and_points(tmp_path):
    cfg = write_cfg(tmp_path, """
[set]
expression = interval

[dims]
scales = 2^-2..2^-8
""")
    out = tmp_path / "iv"
    assert main(["dims", "--config", cfg, "--out", str(out)]) == 0
    summary = dict(read_csv(out / "dims_summary.csv")[1:])
    assert abs(float(summary["beta_estimate"]) - 1.0) <= 0.01

    cfg = write_cfg(tmp_path, """
[set]
expression = points(3/2)

[dims]
scales = 2^-2..2^-8
""", name="pts.cfg")
    out = tmp_path / "pt"
    assert main(["dims", "--config", cfg, "--out", str(out)]) == 0
    summary = dict(read_csv(out / "dims_summary.csv")[1:])
    assert float(summary["beta_estimate"]) == 0.0


# ---------------------------------------------------------------------------
# region


def test_region_interval_endpoint_csv(tmp_path):
    cfg = write_cfg(tmp_path, "[region]\nd = 3\nbeta = 1\n")
    out = tmp_path / "reg"
    assert main(["region", "--config", cfg, "--out", str(out)]) == 0
    assert read_csv(out / "region_vertices.csv") == [
        ["index", "x", "y", "status"],
        ["0", "0", "0", "included"],
        ["1", "2/3", "2/9", "excluded"],
        ["2", "2/3", "2/3", "excluded"],
    ]
    edges = read_csv(out / "region_edges.csv")
    assert [row[-1] for row in edges[1:]] == ["included", "excluded",
                                              "included"]
    summary = dict(read_csv(out / "region_summary.csv")[1:])
    assert summary["provenance"] == "interval-endpoint"
    assert summary["exterior_status"] == "excluded"


def test_region_supercritical_quadrilateral(tmp_path):
    cfg = write_cfg(tmp_path, """
[region]
d = 2
beta = 1/2
gamma = 7/8
gamma_star = 7/8
minkowski_bounded = yes
assouad_bounded = yes
""")
    out = tmp_path / "quad"
    assert main(["region", "--config", cfg, "--out", str(out)]) == 0
    verts = read_csv(out / "region_vertices.csv")[1:]
    assert [(x, y) for _, x, y, _ in verts] == [
        ("0", "0"), ("8/15", "4/15"), ("11/19", "6/19"), ("2/3", "2/3")]
    summary = dict(read_csv(out / "region_summary.csv")[1:])
    assert summary["provenance"] == "2d-critical-endpoint"


def test_region_critical_gamma_collapses(tmp_path):
    # at 2*gamma = beta + 1 the quadrilateral degenerates to the triangle
    cfg = write_cfg(tmp_path, "[region]\nd = 2\nbeta = 1/2\ngamma = 3/4\n")
    out = tmp_path / "tri"
    assert main(["region", "--config", cfg, "--out", str(out)]) == 0
    verts = read_csv(out / "region_vertices.csv")[1:]
    assert [(x, y) for _, x, y, _ in verts] == [
        ("0", "0"), ("4/7", "2/7"), ("2/3", "2/3")]


def test_region_missing_section_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[set]\nexpression = interval\n")
    assert main(["region", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "region" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probe


PROBE_CFG = """
[set]
expression = points(3/2)

[probe]
family = AnnulusDelta
d = 2
pq = 2:4, 2:5
scales = 2^-4..2^-10
t0 = 3/2
"""


def test_probe_summary_verdicts(tmp_path):
    cfg = write_cfg(tmp_path, PROBE_CFG)
    out = tmp_path / "probe"
    assert main(["probe", "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == 0
    summary = read_csv(out / "probe_summary.csv")
    assert summary[0][:2] == ["p", "q"]
    by_q = {row[1]: row for row in summary[1:]}
    assert abs(float(by_q["4"][2])) <= 0.05
    assert by_q["4"][5] == "inconclusive"
    assert by_q["5"][5] == "violation-detected"
    assert abs(float(by_q["5"][4]) + 0.1) < 1e-12
    rows = read_csv(out / "probe_rows.csv")
    assert len(rows) == 1 + 2 * 7
    scales = {row[2] for row in rows[1:]}
    assert scales == {f"{1 / 2 ** k:.10g}" for k in range(4, 11)}


def test_probe_byte_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, PROBE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["probe", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["probe", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("probe_rows.csv", "probe_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = [r for r in read_csv(out1 / "manifest.csv") if r[0] != "generated_at"]
    m2 = [r for r in read_csv(out2 / "manifest.csv") if r[0] != "generated_at"]
    assert m1 == m2


def test_probe_domain_error_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PROBE_CFG.replace("t0 = 3/2", "t0 = 5/4"))
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "domain error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and report


def test_verify_suite_passes(tmp_path, capsys):
    out = tmp_path / "ver"
    assert main(["verify", "--seed", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kernel-normalization" in text
    report = read_csv(out / "verify_report.csv")
    assert report[0] == ["check", "cases", "failed"]
    assert all(row[2] == "0" for row in report[1:])


def test_report_concatenates_manifests(tmp_path, capsys):
    root = tmp_path / "runs"
    cfg = write_cfg(tmp_path, "[region]\nd = 3\nbeta = 1\n")
    assert main(["region", "--config", cfg, "--out", str(root / "one")]) == 0
    assert main(["region", "--config", cfg, "--out", str(root / "two")]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(root)]) == 0
    rows = read_csv(root / "report.csv")
    sources = {row[0] for row in rows[1:]}
    assert sources == {"one", "two"}
    assert main(["report", "--out", str(tmp_path / "absent")]) == 2


def test_verify_rejects_nonpositive_tol(capsys):
    assert main(["verify", "--tol", "0"]) == 2
    assert main(["verify", "--tol", "-1"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err


def test_verify_uses_config_quadrature(tmp_path, capsys):
    # the checks' integrands converge within two refinements even at this
    # budget, so one refinement is what stalls them
    cfg = write_cfg(tmp_path, STALLING_QUAD_CFG.replace(
        "max_refinement = 2", "max_refinement = 1"))
    assert main(["verify", "--config", cfg]) == 4
    assert "precision error" in capsys.readouterr().err


def test_threads_guard(capsys):
    assert main(["probe", "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags


FLAG_VALUES = {"--config": "x.cfg", "--out": "x", "--tol": "1e-6",
               "--threads": "2", "--seed": "1"}
FLAGS_READ = {
    "dims": {"--config", "--out"},
    "region": {"--config", "--out"},
    "probe": {"--config", "--out", "--tol", "--threads"},
    "verify": {"--config", "--out", "--tol", "--seed"},
    "report": {"--config", "--out"},
    "mean": {"--config", "--tol"},
}


@pytest.mark.parametrize("command", sorted(FLAGS_READ))
def test_each_subcommand_takes_only_the_flags_it_reads(command, capsys):
    # e.g. region --seed 1 and mean --out x are usage errors
    head = ["mean", "3", "one", "1", "1"] if command == "mean" else [command]
    for flag, value in FLAG_VALUES.items():
        argv = head + [flag, value]
        if flag in FLAGS_READ[command]:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point_has_no_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "sphmax.cli",
         "mean", "3", "one", "1", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.000000"
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# golden artifacts of the README examples


README_CFGS = {
    "dims": "[set]\nexpression = cantor(alpha=1/3, depth=10)\n\n"
            "[dims]\nscales = 3^-2..3^-8\n",
    "region": "[region]\nd = 3\nbeta = 1\n",
}
README_SHA256 = {
    "dims_characteristics.csv":
        "6fb36d1ee4723a8f9d460fdcef39d1098b565fd6402ff675472c932259ccebe0",
    "dims_counts.csv":
        "a2bd8bf40c3f3c42a7b821e4f7bb774dc94f469ef8cfc8adf83c3ce42f9ec5bb",
    "dims_summary.csv":
        "3b617a0c4e54739c329291c2c6498d1e34d025993a9e8fe9233f5a6967b95d7c",
    "region_edges.csv":
        "70f4ae53db3d6bd1f04231ef221b5e845fa1cec16cfa66edf23ce77eb10cd628",
    "region_summary.csv":
        "560678d9297e5ecf24f4a89a8621600ca23737a8f6c14abe3ce819ae394b2c0f",
    "region_vertices.csv":
        "7b163bdb667f2270880e70677e4d42d6e545c76afe996318dfa9c2b4f2bc5fb3",
}


def test_readme_artifacts_golden(tmp_path, capsys):
    for command, text in README_CFGS.items():
        cfg = write_cfg(tmp_path, text, f"{command}.cfg")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in README_SHA256}
    assert got == README_SHA256

    cfg = write_cfg(tmp_path, PROBE_CFG.replace("d = 2", "d = 3"), "probe.cfg")
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "probe"),
                 "--threads", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=2 q=4 fitted=+0.2499 predicted=+0.2500 verdict=consistent",
        "p=2 q=5 fitted=+0.0999 predicted=+0.1000 verdict=consistent",
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_battery_golden(seed, tmp_path, capsys):
    out = tmp_path / "ver"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    rows = [(name, int(cases), int(failed))
            for name, cases, failed in read_csv(out / "verify_report.csv")[1:]]
    assert rows == [
        ("kernel-normalization", 24, 0),
        ("closed-form-mean", 1, 0),
        ("monte-carlo-agreement", 4, 0),
        ("covering-sandwich", 90, 0),
        ("region-degeneracy", 10, 0),
        ("supporting-line-zeros", 16, 0),
        ("membership-references", 4, 0),
    ]
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "149", "0"]
