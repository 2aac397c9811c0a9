"""Scenario parsing, CLI subcommands, exit codes, output determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defectgeom as dg
from defectgeom import cli
from defectgeom.cli import main
from defectgeom.dynamics import NodeStep
from defectgeom.scenario import ScenarioError, parse_scenario

from conftest import assert_same_lines

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def minimal_doc(**overrides):
    doc = {
        "name": "unit",
        "grid": {"extents": [[-1.0, 1.0], [-1.0, 1.0], [-0.4, 0.4]],
                 "resolution": [16, 16, 8]},
        "defects": [],
        "couplings": {"alpha": 1.0, "beta": 1.0, "gamma": 0.5},
        "outputs": ["charges"],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal():
    s = parse_scenario(minimal_doc())
    assert s.name == "unit"
    assert s.grid.resolution == (16, 16, 8)
    assert s.dynamics is None


def test_unknown_key_reports_path():
    doc = minimal_doc()
    doc["grid"]["spacing"] = 1.0
    with pytest.raises(ScenarioError, match=r"\$\.grid\.spacing"):
        parse_scenario(doc)
    doc = minimal_doc(defects=[{"kind": "screw", "position": [0, 0],
                                "charge": 1.0, "core_radius": 0.05,
                                "chirality": 1}])
    with pytest.raises(ScenarioError, match=r"\$\.defects\[0\]\.chirality"):
        parse_scenario(doc)


def test_missing_key_reports_path():
    doc = minimal_doc()
    del doc["couplings"]["alpha"]
    with pytest.raises(ScenarioError, match=r"\$\.couplings\.alpha"):
        parse_scenario(doc)


def test_type_errors_report_path():
    doc = minimal_doc()
    doc["couplings"]["alpha"] = "one"
    with pytest.raises(ScenarioError, match=r"\$\.couplings\.alpha"):
        parse_scenario(doc)
    doc = minimal_doc(outputs=["charges", "plots"])
    with pytest.raises(ScenarioError, match=r"\$\.outputs\[1\]"):
        parse_scenario(doc)
    line = {"nodes": [[0, 0, -0.2], [0, 0, 0.2]], "burgers": [0, 0, 1]}
    for bad_id in (None, 3):
        doc = minimal_doc(dynamics={"time_step": 0.01, "steps": 1, "lines": [
            line, dict(line, id=bad_id)]})
        with pytest.raises(ScenarioError, match=r"\$\.dynamics\.lines\[1\]"
                                                r"\.id: expected a string"):
            parse_scenario(doc)


def test_core_margin_enforced_at_parse_time():
    doc = minimal_doc(defects=[{"kind": "screw", "position": [0.99, 0.0],
                                "charge": 1.0, "core_radius": 0.05}])
    with pytest.raises(ScenarioError, match="5\\*eps"):
        parse_scenario(doc)


def test_dynamics_block_parsing():
    doc = minimal_doc()
    doc["dynamics"] = {
        "time_step": 0.01, "steps": 3,
        "lines": [{"nodes": [[0, 0, -0.2], [0, 0, 0.2]],
                   "burgers": [0, 0, 1]}],
        "force_law": "derivation",
        "disclination_sources": [{"position": [0.1, 0], "frank": 0.1,
                                  "core_radius": 0.05}],
    }
    s = parse_scenario(doc)
    assert s.dynamics.force_law == "derivation"
    assert len(s.lines) == 1 and len(s.disclination_sources) == 1
    doc["dynamics"]["force_law"] = "peach-koehler"
    with pytest.raises(ScenarioError, match="force_law"):
        parse_scenario(doc)
    # a line without an id is line<index>, so an explicit "line1" or
    # "line0" clashes with the default id of the other line
    doc["dynamics"]["force_law"] = "derivation"
    line = doc["dynamics"]["lines"][0]
    for first, second in (({"id": "a"}, {"id": "a"}), ({"id": "line1"}, {}),
                          ({}, {"id": "line0"})):
        doc["dynamics"]["lines"] = [dict(line, **first), dict(line, **second)]
        with pytest.raises(ScenarioError, match=r"\$\.dynamics\.lines\[1\]"
                           r"\.id: '\w+' is already the id of "
                           r"\$\.dynamics\.lines\[0\]$"):
            parse_scenario(doc)
    doc["dynamics"]["lines"] = [dict(line, id="a"), dict(line, id="line0")]
    assert [l.id for l in parse_scenario(doc).lines] == ["a", "line0"]


def test_scenario_roundtrip():
    from defectgeom.scenario import scenario_to_doc
    doc = minimal_doc(defects=[{"kind": "edge", "position": [0.0, 0.0],
                                "charge": 0.5, "core_radius": 0.06,
                                "burgers_direction": [0.0, 1.0]}])
    s1 = parse_scenario(doc)
    s2 = parse_scenario(scenario_to_doc(s1))
    assert scenario_to_doc(s1) == scenario_to_doc(s2)


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

def run_cli(tmp_path, command, scenario, *extra):
    out = tmp_path / "out"
    argv = ["--out", str(out), *extra, command, str(scenario)]
    return main(argv), out


def write_scenario(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


def small_screw_doc():
    return {
        "name": "small_screw",
        "grid": {"extents": [[-1.6, 1.6], [-1.6, 1.6], [-0.4, 0.4]],
                 "resolution": [64, 64, 8]},
        "defects": [{"kind": "screw", "position": [0.0, 0.0], "charge": 1.0,
                     "core_radius": 0.1}],
        "couplings": {"alpha": 1.0, "beta": 1.0, "gamma": 0.5,
                      "kappa_u1": 1.0},
        "outputs": ["fields", "charges"],
    }


def test_cli_charges(tmp_path):
    p = write_scenario(tmp_path, small_screw_doc())
    code, out = run_cli(tmp_path, "charges", p)
    assert code == 0
    data = json.loads((out / "charges.json").read_text())
    rec = data["defects"][0]
    assert abs(rec["burgers"][2] - 1.0) < 1e-3
    assert abs(rec["loopHolonomy"][2] - 1.0) < 1e-6
    assert (out / "scenario.json").exists() and (out / "meta.json").exists()


@pytest.mark.parametrize("name", ["screw", "edge", "wedge", "screw_wedge"])
def test_cli_charges_of_shipped_scenarios_within_1e_6(tmp_path, name):
    """Every projected Burgers or Frank charge that `charges` measures on the
    shipped defect scenarios is within 1e-6 of its nominal value, relative."""
    path = SCENARIOS / f"{name}.json"
    code, out = run_cli(tmp_path, "charges", path)
    assert code == 0
    records = json.loads((out / "charges.json").read_text())["defects"]
    defects = parse_scenario(json.loads(path.read_text())).defects
    assert len(records) == len(defects)
    for d, rec in zip(defects, records):
        if d.kind == "wedge":
            expected = 2 * math.pi * d.charge
            err = abs(rec["frankAxial"][2] - expected) / abs(expected)
        else:
            axis = [0.0, 0.0, 1.0] if d.kind == "screw" else \
                [*d.burgers_direction, 0.0]
            bhat = d.charge * np.array(axis) / np.linalg.norm(axis) \
                / abs(d.charge)
            err = abs(np.dot(rec["burgers"], bhat) - abs(d.charge)) \
                / abs(d.charge)
        assert err < 1e-6, (d.kind, err)


def test_cli_fields_outputs(tmp_path):
    p = write_scenario(tmp_path, small_screw_doc())
    code, out = run_cli(tmp_path, "fields", p)
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == sorted(
        [f"{name}.field" for name in ("coframe", "coframe_perturbation",
                                      "connection", "torsion", "curvature")]
        + ["profile_ray.csv", "scenario.json", "meta.json"])
    t = dg.read_field(out / "torsion.field")
    assert t.degree == 2 and t.value_type == "vector"
    profile = (out / "profile_ray.csv").read_text().strip().split("\n")
    assert profile[0] == "r,perturbation_mag,r_times_mag"
    # 1/r decay: r * |perturbation| is flat along the ray
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in profile[1:]])
    rmag = rows[rows[:, 0] > 0.4][:, 2]
    assert rmag.std() / rmag.mean() < 0.05


def test_cli_config_error_exit_code(tmp_path, capsys):
    doc = small_screw_doc()
    doc["grid"]["resolutionn"] = [4, 4, 4]
    p = write_scenario(tmp_path, doc)
    code, _ = run_cli(tmp_path, "charges", p)
    assert code == 1
    assert "$.grid.resolutionn" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_cli_out_not_a_directory_is_config_error(tmp_path, capsys, sub):
    """An --out that is an existing file, or lies under one, exits 1 with
    a config error, not a traceback."""
    (tmp_path / "taken").write_text("")
    code = main(["--out", str(tmp_path / "taken" / sub), "charges",
                 str(SCENARIOS / "screw.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: output directory not writable: ")
    assert "Traceback" not in err


def test_cli_missing_scenario_file(tmp_path):
    code, _ = run_cli(tmp_path, "charges", tmp_path / "absent.json")
    assert code == 1


def test_cli_simulate_requires_dynamics(tmp_path):
    p = write_scenario(tmp_path, small_screw_doc())
    code, _ = run_cli(tmp_path, "simulate", p)
    assert code == 1


def test_cli_verify_small_grid_warns(tmp_path):
    doc = minimal_doc()
    doc["grid"]["resolution"] = [4, 4, 4]
    doc["name"] = "tiny"
    p = write_scenario(tmp_path, doc)
    code, out = run_cli(tmp_path, "verify", p)
    report = json.loads((out / "verify_report.json").read_text())
    assert any("underresolved" in w for w in report["warnings"])
    assert code == 0    # defect-free checks still pass


def test_cli_verify_coarse_skip_names_axis(tmp_path):
    """The refinement diagnostic's skip names each axis below 16 cells; the
    16^3 defect-free grid runs it."""
    code, out = run_cli(tmp_path, "verify", SCENARIOS / "screw.json")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    coarse = [w for w in report["warnings"] if "too coarse" in w]
    assert len(coarse) == 1 and "(8 cells on z, below 16)" in coarse[0]
    code, out = run_cli(tmp_path / "cube", "verify",
                        SCENARIOS / "defect_free.json")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert not any("too coarse" in w for w in report["warnings"])


def test_cli_verify_defect_free_exact(tmp_path):
    code, out = run_cli(tmp_path, "verify", SCENARIOS / "defect_free.json")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert any("force balance" in n for n in names)
    assert report["passed"]


def count_calls(monkeypatch, source, names):
    """Count calls of the named functions of module `source` through every
    binding of them in the package; returns the live {name: count} dict."""
    calls = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items()
               if n == "defectgeom" or n.startswith("defectgeom.")]
    for name in names:
        orig = getattr(source, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_cli_verify_builds_each_grid_once(tmp_path, monkeypatch):
    """verify on the defect-free scenario builds torsion and curvature once
    per grid (base, fine and 4D embedding) and the coframe once per 3D
    grid. Every binding of each builder in the package is counted."""
    calls = count_calls(monkeypatch, dg.defects,
                        ("torsion", "curvature", "build_coframe"))
    code, _ = run_cli(tmp_path, "verify", SCENARIOS / "defect_free.json")
    assert code == 0
    assert calls == {"torsion": 3, "curvature": 3, "build_coframe": 2}


def test_cli_simulate_calls_step_lines_once_per_step(tmp_path, monkeypatch):
    """simulate advances the lines through the public step_lines, once per
    step of the scenario (40 in magnus.json)."""
    calls = count_calls(monkeypatch, dg.dynamics, ("step_lines",))
    code, _ = run_cli(tmp_path, "simulate", SCENARIOS / "magnus.json")
    assert code == 0
    assert calls == {"step_lines": 40}


def test_cli_resolution_scale(tmp_path):
    doc = small_screw_doc()
    doc["grid"]["resolution"] = [32, 32, 4]
    p = write_scenario(tmp_path, doc)
    code, out = run_cli(tmp_path, "charges", p, "--resolution-scale", "2")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["resolutionScale"] == 2


def test_cli_simulate_magnus_scenario(tmp_path):
    code, out = run_cli(tmp_path, "simulate", SCENARIOS / "magnus.json")
    assert code == 0
    rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert rows["transversality"].max() < 1e-12
    # deflected sideways by the disclination while driven along x
    zdrift = np.abs(rows["pz"][rows["node"] == 0][-1] - (-0.3))
    assert zdrift == 0.0  # screw b parallel z with derivation law moves in y
    ydrift = np.abs(rows["py"][rows["node"] == 0][-1])
    assert ydrift > 1e-3
    fig = (out / "fig_transversality.csv").read_text().strip().split("\n")
    assert len(fig) == 65
    final = json.loads((out / "network_final.json").read_text())
    assert final["ledgerDrift"] == 0.0


def test_cli_simulate_annihilation(tmp_path):
    code, out = run_cli(tmp_path, "simulate", SCENARIOS / "annihilation.json")
    assert code == 0
    events = [json.loads(line) for line in
              (out / "events.jsonl").read_text().strip().split("\n")]
    assert len(events) == 1
    final = json.loads((out / "network_final.json").read_text())
    assert final["lines"] == []
    assert final["ledgerDrift"] < 1e-12


def test_cli_config_roundtrip_reproduces_run(tmp_path):
    """The scenario echoed into the output directory reproduces the run."""
    p = write_scenario(tmp_path, small_screw_doc())
    _, out1 = run_cli(tmp_path / "a", "charges", p)
    _, out2 = run_cli(tmp_path / "b", "charges", out1 / "scenario.json")
    assert (out1 / "charges.json").read_bytes() == \
        (out2 / "charges.json").read_bytes()


# Every import of scipy or of one of its modules raises in the child.
NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")

sys.meta_path.insert(0, NoScipy())
from defectgeom.cli import main
codes = [main(["--out", out, command, scenario])
         for command, scenario, out in json.loads(sys.argv[1])]
try:
    import scipy
    codes.append("scipy imported")
except ImportError:
    pass
print(json.dumps(codes))
"""


@pytest.mark.parametrize("command",
                         ["import", "fields", "charges", "verify", "simulate"])
def test_cli_runs_without_scipy(tmp_path, command):
    """scipy is not a dependency: in an interpreter where every import of
    scipy raises, the CLI imports, and each command exits as it does with
    scipy present on every shipped scenario. That is 0 everywhere, except
    `simulate` of a scenario without a dynamics block, which exits 1."""
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) == 7
    runs = [] if command == "import" else \
        [(command, str(p), str(tmp_path / p.stem)) for p in paths]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    want = [1 if command == "simulate"
            and "dynamics" not in json.loads(p.read_text()) else 0
            for p in paths] if runs else []
    assert codes == want


def test_cli_import_does_not_load_numpy_polynomial():
    """The disk rule's Gauss-Legendre nodes come from `numpy.polynomial`,
    which `import numpy` does not load; the CLI must not load it at import
    either, only on its first surface integral."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", "import sys\nimport defectgeom.cli\n"
                               "print('numpy.polynomial' in sys.modules)\n"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("command, scenario", [
    ("charges", "screw.json"), ("simulate", "annihilation.json"),
])
def test_cli_meta_records_wall_time_and_peak_rss(tmp_path, command, scenario):
    code, out = run_cli(tmp_path, command, SCENARIOS / scenario)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert set(meta) == {"version", "command", "resolutionScale",
                         "timestamp", "wallSeconds", "peakRssMb",
                         "peakRssMbAtStart"}
    for key in ("wallSeconds", "peakRssMb", "peakRssMbAtStart"):
        assert math.isfinite(meta[key]) and meta[key] > 0, key


def test_cli_meta_peak_rss_at_start_bounds_a_second_run(tmp_path):
    """`peakRssMb` is the peak of the whole process, so a second run in
    the same process may report the first one's; `peakRssMbAtStart` is the
    peak when the run began, which tells the two apart."""
    run_cli(tmp_path / "a", "charges", SCENARIOS / "screw_wedge.json")
    code, out = run_cli(tmp_path / "b", "simulate",
                        SCENARIOS / "annihilation.json")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert 0 < meta["peakRssMbAtStart"] <= meta["peakRssMb"]


def test_cli_meta_records_cost_of_failed_run(tmp_path):
    """A run that fails after the output directory is prepared still
    records its cost beside the exit code."""
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    doc["dynamics"].update(steps=0, Gamma=1e308)
    doc["dynamics"]["disclination_sources"][0]["frank"] = 100.0
    doc["dynamics"]["lines"][0]["nodes"] = [[0.15, 0, -0.3], [0.15, 0, 0.3]]
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    assert code == 3
    meta = json.loads((out / "meta.json").read_text())
    assert meta["wallSeconds"] > 0 and meta["peakRssMb"] > 0


def test_cli_writes_meta_once_after_the_data(tmp_path, monkeypatch):
    written = []
    dump = cli._json_dump

    def logged(path, obj):
        written.append(Path(path).name)
        dump(path, obj)

    monkeypatch.setattr(cli, "_json_dump", logged)
    code, _ = run_cli(tmp_path, "charges", SCENARIOS / "screw.json")
    assert code == 0
    assert written == ["scenario.json", "charges.json", "meta.json"]


@pytest.mark.parametrize("platform, maxrss", [
    ("linux", 49664), ("freebsd14", 49664), ("darwin", 50855936),
])
def test_peak_rss_mb_reads_maxrss_in_the_platform_unit(monkeypatch, platform,
                                                       maxrss):
    """`ru_maxrss` is in KiB on Linux and the BSDs and in bytes on macOS;
    both read 48.5 MB here."""
    usage = cli.resource.struct_rusage((0.0,) * 2 + (maxrss,) + (0,) * 13)
    monkeypatch.setattr(cli.resource, "getrusage", lambda who: usage)
    monkeypatch.setattr(cli.sys, "platform", platform)
    assert cli._peak_rss_mb() == 48.5


def test_cli_determinism_bit_identical(tmp_path):
    """Two runs of the same scenario produce bit-identical data files."""
    p = write_scenario(tmp_path, small_screw_doc())
    _, out1 = run_cli(tmp_path / "a", "fields", p)
    _, out2 = run_cli(tmp_path / "b", "fields", p)
    names1 = sorted(f.name for f in out1.iterdir())
    names2 = sorted(f.name for f in out2.iterdir())
    assert names1 == names2
    for name in names1:
        if name == "meta.json":    # sidecar carries the timestamp
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["screw", "edge"])
def test_cli_verify_negative_dislocation_charge(tmp_path, kind):
    """A negative screw or edge charge measures its own signed Burgers
    vector, so the projected check passes like the positive one."""
    doc = small_screw_doc()
    doc["defects"][0]["charge"] = -1.0
    if kind == "edge":
        doc["defects"][0].update(kind="edge", burgers_direction=[0.0, 1.0])
    p = write_scenario(tmp_path, doc)
    code, out = run_cli(tmp_path, "verify", p)
    report = json.loads((out / "verify_report.json").read_text())
    burgers = [c for c in report["checks"] if "Burgers charge" in c["name"]]
    assert len(burgers) == 1 and burgers[0]["relativeError"] < 1e-3
    assert code == 0 and report["passed"]


@pytest.mark.parametrize("name", ["screw", "edge"])
def test_cli_verify_huge_dislocation_charge(tmp_path, name):
    """A 1e200 charge squares past the float range, so its Burgers axis is
    normalized before the charge scales it: the projected check passes."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["defects"][0]["charge"] = 1e200
    code, out = run_cli(tmp_path, "verify", write_scenario(tmp_path, doc))
    report = json.loads((out / "verify_report.json").read_text())
    burgers = [c for c in report["checks"] if "Burgers charge" in c["name"]]
    assert len(burgers) == 1 and burgers[0]["relativeError"] < 1e-6
    assert code == 0 and report["passed"]


def test_cli_fields_writes_stored_rows(tmp_path):
    """`fields` writes each row at its stored shape: the five `.field` files
    of screw_wedge at scale 1 hold about 1.3 MB, where full arrays would
    take 47 MB."""
    code, out = run_cli(tmp_path, "fields", SCENARIOS / "screw_wedge.json")
    assert code == 0
    sizes = [f.stat().st_size for f in out.glob("*.field")]
    assert len(sizes) == 5 and sum(sizes) < 2e6


@pytest.mark.parametrize("key, value, path", [
    ("external_force", [float("nan"), 0.0, 0.0],
     r"\$\.dynamics\.external_force\[0\]"),
    ("Gamma", float("inf"), r"\$\.dynamics\.Gamma"),
    ("lines", [{"nodes": [[0.5, 0, -0.2], [0.5, 0, float("nan")]],
                "burgers": [0, 0, 1]}],
     r"\$\.dynamics\.lines\[0\]\.nodes\[1\]\[2\]: expected a finite"),
])
def test_cli_non_finite_number_is_config_error(tmp_path, capsys, key, value,
                                                path):
    doc = small_screw_doc()
    doc["dynamics"] = {"time_step": 0.01, "steps": 2,
                       "lines": [{"nodes": [[0.5, 0, -0.2], [0.5, 0, 0.2]],
                                  "burgers": [0, 0, 1]}],
                       key: value}
    p = write_scenario(tmp_path, doc)
    assert "NaN" in p.read_text() or "Infinity" in p.read_text()
    code, out = run_cli(tmp_path, "simulate", p)
    assert code == 1
    assert re.search(path, capsys.readouterr().err)
    assert not (out / "trajectory.csv").exists()


def test_number_too_large_for_float_reports_path():
    doc = minimal_doc()
    doc["couplings"]["alpha"] = 10 ** 400
    with pytest.raises(ScenarioError, match=r"\$\.couplings\.alpha: .*finite"):
        parse_scenario(doc)


@pytest.mark.parametrize("kind", ["screw", "edge"])
def test_zero_dislocation_charge_is_config_error(kind):
    defect = {"kind": kind, "position": [0.0, 0.0], "charge": 0.0,
              "core_radius": 0.05}
    if kind == "edge":
        defect["burgers_direction"] = [1.0, 0.0]
    with pytest.raises(ScenarioError,
                       match=r"\$\.defects\[0\]: charge must be nonzero"):
        parse_scenario(minimal_doc(defects=[defect]))


@pytest.mark.parametrize("extent, message", [
    ([-1e308, 1e308], "must have a finite positive length"),
    ([0.0, 1e-323], "has zero spacing"),
])
def test_unusable_grid_extent_reports_path(extent, message):
    doc = minimal_doc()
    doc["grid"]["extents"][0] = extent
    with pytest.raises(ScenarioError, match=r"\$\.grid: .*" + message):
        parse_scenario(doc)


def test_cli_overflowing_grid_extent_exit_1(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "screw.json").read_text())
    doc["grid"]["extents"][0] = [-1e308, 1e308]
    code, out = run_cli(tmp_path, "fields", write_scenario(tmp_path, doc))
    assert code == 1
    assert "$.grid: extent [-1e+308, 1e+308] must have a finite positive " \
        "length" in capsys.readouterr().err
    assert not out.exists()


def test_zero_wedge_charge_parses():
    s = parse_scenario(minimal_doc(defects=[
        {"kind": "wedge", "position": [0.0, 0.0], "charge": 0.0,
         "core_radius": 0.05}]))
    assert s.defects[0].charge == 0.0


def test_cli_verify_zero_screw_charge_exit_1(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "screw.json").read_text())
    doc["defects"][0]["charge"] = 0.0
    code, _ = run_cli(tmp_path, "verify", write_scenario(tmp_path, doc))
    assert code == 1
    assert "$.defects[0]: charge must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, "ab"])
def test_cli_disclination_sources_must_be_a_list(tmp_path, capsys, value):
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    doc["dynamics"]["disclination_sources"] = value
    code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    assert code == 1
    assert "$.dynamics.disclination_sources: expected a list" \
        in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_cli_simulate_non_finite_dynamics_exit_3(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    dyn = doc["dynamics"]
    dyn["Gamma"] = 1e308
    dyn["lines"][0]["burgers"] = [0, 0, 100]
    dyn["disclination_sources"][0]["position"] = [-0.3, 0.0]
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "simulate",
                            write_scenario(tmp_path, doc))
    assert code == 3
    assert "non-finite dynamics at step 0: line 'screw1' node 0" \
        in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_cli_simulate_overflowing_transversality_exit_3(tmp_path, capsys):
    """Finite velocity and force whose |F|^2 overflows give a NaN
    transversality; the run names the node instead of writing it."""
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    dyn = doc["dynamics"]
    dyn.update(steps=2, external_force=[1e300, 0.0, 0.0], time_step=1e-110,
               Gamma=1e202)
    dyn["lines"][0]["mobility"] = 1e-200
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "simulate",
                            write_scenario(tmp_path, doc))
    assert code == 3
    assert "non-finite transversality at step 0: line 'screw1' node 0" \
        in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_cli_fields_overflowing_ray_profile_exit_3(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "screw.json").read_text())
    doc["defects"][0]["charge"] = 1e300
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "fields", write_scenario(tmp_path, doc))
    assert code == 3
    first = 2 * doc["defects"][0]["core_radius"]   # the ray's first radius
    assert f"non-finite perturbation magnitude in profile_ray.csv at " \
        f"r = {first:.17g}" in capsys.readouterr().err
    assert not (out / "profile_ray.csv").exists()


@pytest.mark.parametrize("command, report",
                         [("charges", "charges.json"),
                          ("verify", "verify_report.json")])
@pytest.mark.parametrize("name, message", [
    ("screw", "burgers [0.0, 0.0, nan]"),
    ("wedge", "frankAxial [-0.0, 0.0, nan]")])
def test_cli_overflowing_charge_exit_3(tmp_path, capsys, command, report,
                                       name, message):
    """Near the largest charge whose torsion or curvature is finite, the
    spline of the defect's core overflows, so its disk flux is NaN: the run
    names the defect and the quantity instead of writing it."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["defects"][0]["charge"] = {"screw": 3e306, "wedge": 4e305}[name]
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, command, write_scenario(tmp_path, doc))
    assert code == 3
    assert f"runtime error: defect 0: non-finite {message}\n" \
        in capsys.readouterr().err
    assert not (out / report).exists()


@pytest.mark.parametrize("scale", ["1", "3"])
@pytest.mark.parametrize("name, key", [("screw", "burgers"),
                                       ("wedge", "frankAxial")])
def test_cli_charge_of_1e305_stays_finite(tmp_path, name, key, scale):
    """The spline's prefilter does not overflow on a 1e305 defect, whose
    fields are finite: its charge is measured like any other, from 128^2
    rows (dense prefilter) and from 384^2 rows (recursive prefilter)."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["defects"][0]["charge"] = 1e305
    code, out = run_cli(tmp_path, "charges", write_scenario(tmp_path, doc),
                        "--resolution-scale", scale)
    assert code == 0
    got = json.loads((out / "charges.json").read_text())["defects"][0][key]
    want = 1e305 * (1.0 if name == "screw" else 2 * math.pi)
    assert abs(got[2] - want) <= 1e-3 * want


def test_cli_simulate_overflowing_transversality_map_exit_3(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    dyn = doc["dynamics"]
    dyn["steps"] = 0
    dyn["Gamma"] = 1e308
    dyn["disclination_sources"][0]["frank"] = 100.0
    dyn["lines"][0]["nodes"] = [[0.15, 0, -0.3], [0.15, 0, 0.3]]
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, "simulate",
                            write_scenario(tmp_path, doc))
    assert code == 3
    assert "non-finite transversality data in fig_transversality.csv at " \
        "phi = 0\n" in capsys.readouterr().err
    assert not (out / "fig_transversality.csv").exists()


def clip_doc():
    """An edge line driven across x = 1, losing a node in steps 1 and 2."""
    doc = minimal_doc(outputs=["trajectories"])
    doc["dynamics"] = {
        "Gamma": 0.0, "time_step": 0.05, "steps": 4,
        "external_force": [1.0, 0.0, 0.0],
        "lines": [{"nodes": [[0.80, 0.0, -0.2], [0.87, 0.0, 0.0],
                             [0.93, 0.0, 0.2]],
                   "burgers": [1.0, 0.0, 0.0], "id": "edge"}]}
    return doc


def test_cli_simulate_writes_clip_events(tmp_path):
    code, out = run_cli(tmp_path, "simulate",
                        write_scenario(tmp_path, clip_doc()))
    assert code == 0
    lines = (out / "clips.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert lines == [json.dumps(rec, sort_keys=True) for rec in records]
    # x = 1 is the boundary: node 2 leaves in step 1, node 1 in step 2, and
    # the line, down to one node, is dropped
    assert [(r["step"], r["lineId"], r["node"]) for r in records] == \
        [(1, "edge", 2), (2, "edge", 1)]
    assert all(r["position"][0] > 1.0 for r in records)
    assert records[0]["position"] == pytest.approx([1.03, 0.0, 0.2])
    final = json.loads((out / "network_final.json").read_text())
    assert final["lines"] == []
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == list("00011122")


# ---------------------------------------------------------------------------
# trajectory.csv
# ---------------------------------------------------------------------------

def per_row_trajectory(node_steps, external_force):
    """trajectory.csv as the per-row %.17g template writes it: the reference
    for the block kernel that `cli._write_trajectory` uses."""
    row = "%d,%s,%d," + ",".join(["%.17g"] * 13) + "\n"
    text = ["step,line_id,node,px,py,pz,vx,vy,vz,"
            "fx_ext,fy_ext,fz_ext,fx_mag,fy_mag,fz_mag,transversality\n"]
    for step, s in enumerate(node_steps):
        values = np.column_stack([
            s.position, s.velocity,
            np.broadcast_to(external_force, (len(s), 3)), s.f_magnus,
            s.transversality]).tolist()
        text.extend(row % (step, line_id, k, *vals) for line_id, k, vals
                    in zip(s.line_ids, s.node.tolist(), values))
    return "".join(text)


def network_doc():
    """20 lines of 30 nodes around three disclination sources, lines 0 and 1
    touching with equal Burgers vectors, so each step has 600 rows (more
    than one block) and the pair merges."""
    rng = np.random.default_rng(20)
    burgers = ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
               [0.0, -1.0, 0.0], [1.0, 0.0, -1.0])
    z = np.linspace(-0.35, 0.35, 30)
    lines = []
    for i in range(20):
        x, y = -1.05 + 0.3 * (i % 5), -0.6 + 0.3 * (i // 5)
        wave = rng.uniform(0.0, 0.01) * np.sin(9.0 * z + rng.uniform(0, 6))
        lines.append({"nodes": np.column_stack([x + wave, y + wave, z]),
                      "burgers": burgers[i % 5], "id": f"n{i}"})
    lines[1]["nodes"] = lines[0]["nodes"] + np.array([0.015, 0.0, 0.0])
    for line in lines:
        line["nodes"] = line["nodes"].tolist()
    doc = minimal_doc(outputs=["trajectories", "events"])
    doc["grid"] = {"extents": [[-1.6, 1.6], [-1.6, 1.6], [-0.4, 0.4]],
                   "resolution": [32, 32, 8]}
    doc["dynamics"] = {
        "force_law": "derivation", "external_force": [0.2, -0.1, 0.0],
        "time_step": 0.01, "steps": 3, "reconnection_threshold": 0.03,
        "disclination_sources": [
            {"position": [0.1, 0.2], "frank": 0.2, "core_radius": 0.2},
            {"position": [-0.7, -0.3], "frank": -0.15, "core_radius": 0.25},
            {"position": [0.9, 0.6], "frank": 0.1, "core_radius": 0.15}],
        "lines": lines}
    return doc


def magnus_cross_doc():
    """magnus.json under the cross law with b = x-hat, so Theta x b is not
    zero and the transverse force is."""
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    doc["dynamics"]["force_law"] = "cross"
    doc["dynamics"]["lines"][0]["burgers"] = [1.0, 0.0, 0.0]
    return doc


@pytest.mark.parametrize("scenario", ["magnus", "magnus_cross",
                                      "annihilation", "clip", "network"])
def test_cli_trajectory_matches_per_row_template(tmp_path, monkeypatch,
                                                 scenario):
    """trajectory.csv is byte for byte the text of the per-row %.17g
    template on the node steps `simulate` hands to the writer."""
    if scenario in ("magnus", "annihilation"):
        path = SCENARIOS / f"{scenario}.json"
    elif scenario == "magnus_cross":
        path = write_scenario(tmp_path, magnus_cross_doc())
    else:
        path = write_scenario(tmp_path, clip_doc() if scenario == "clip"
                              else network_doc())
    seen = []
    write = cli._write_trajectory

    def recording_write(path, node_steps, external_force):
        seen.append((node_steps, external_force))
        write(path, node_steps, external_force)

    monkeypatch.setattr(cli, "_write_trajectory", recording_write)
    code, out = run_cli(tmp_path, "simulate", path)
    assert code == 0 and len(seen) == 1
    if scenario == "magnus_cross":
        assert max(np.abs(s.f_magnus).max() for s in seen[0][0]) > 0.0
    if scenario == "network":
        assert len(seen[0][0][0]) > cli.TRAJECTORY_BLOCK_ROWS
        assert json.loads((out / "network_final.json").read_text()
                          )["eventCount"] >= 1
    assert_same_lines((out / "trajectory.csv").read_text(),
                      per_row_trajectory(*seen[0]))


@pytest.mark.parametrize("line_id", ["a,b", 'say "a"', "a\nb", "a\rb",
                                     "a\0b"])
def test_cli_line_id_that_would_split_a_csv_field_exit_1(tmp_path, capsys,
                                                         line_id):
    """A line id holding a comma, a double quote or a line break would give
    a trajectory row more fields than the header, and the trajectory writer
    deletes NUL, so each is a config error."""
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    doc["dynamics"]["lines"][0]["id"] = line_id
    code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    assert code == 1
    assert f"$.dynamics.lines[0].id: {line_id!r} holds a comma" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_closed_line_repeating_its_first_node_exit_1(tmp_path, capsys):
    """On a closed line the last node and the first are consecutive, so a
    last node equal to the first is a config error, not two nodes that move
    apart."""
    doc = json.loads((SCENARIOS / "magnus.json").read_text())
    doc["dynamics"]["steps"] = 3
    doc["dynamics"]["lines"] = [{
        "nodes": [[-0.3, 0, 0], [-0.1, 0, 0], [-0.1, 0.2, 0], [-0.3, 0, 0]],
        "burgers": [1, 0, 0], "closed": True}]
    code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    assert code == 1
    assert "$.dynamics.lines[0]: consecutive nodes must be distinct" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_merged_id_cannot_repeat_an_explicit_id(tmp_path, capsys):
    """A merge names its line "a+b", so an explicit id holding '+', such as
    "plus+minus" beside lines "plus" and "minus" that merge, could name two
    live lines and key two trajectory rows alike: it is a config error."""
    doc = json.loads((SCENARIOS / "annihilation.json").read_text())
    doc["dynamics"]["lines"][1]["burgers"] = [0.0, 0.0, 1.0]
    doc["dynamics"]["lines"].append({
        "nodes": [[1.0, 0.0, -0.3], [1.0, 0.0, 0.0], [1.0, 0.0, 0.3]],
        "burgers": [1.0, 0.0, 0.0], "id": "plus+minus"})
    code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    assert code == 1
    assert "$.dynamics.lines[2].id: 'plus+minus' holds '+'" \
        in capsys.readouterr().err
    assert not out.exists()
    del doc["dynamics"]["lines"][2]
    code, out = run_cli(tmp_path, "simulate", write_scenario(tmp_path, doc))
    final = json.loads((out / "network_final.json").read_text())
    assert code == 0 and [l["id"] for l in final["lines"]] == ["plus+minus"]


TRAJECTORY_IDS = ["a", "bb", "ccc", "dddd", "eeeee", "ffffff", "ggggggg",
                  "hhhhhhhh", "iiiiiiiii"]


def hand_built_steps(rng, sizes):
    """NodeSteps of the given row counts with ids of 1 to 9 characters, node
    indices up to 149 and values that take the kernel's slow path in the
    position and velocity columns and in the force and defect columns."""
    steps = []
    for n in sizes:
        values = rng.normal(size=(n, 10)) * 10.0 ** rng.integers(-20, 20,
                                                                  (n, 10))
        slow = rng.random((n, 10)) < 0.05
        values[slow] = rng.choice([1e-300, -1e300, np.inf, -np.inf, np.nan,
                                   0.0, -0.0, 1125899906842624.25],
                                  slow.sum())
        steps.append(NodeStep(
            line_ids=[TRAJECTORY_IDS[k] for k in rng.integers(0, 9, n)],
            node=rng.integers(0, 150, n), position=values[:, 0:3],
            velocity=values[:, 3:6], f_magnus=values[:, 6:9],
            transversality=values[:, 9]))
    return steps


@pytest.mark.parametrize("ext", [[-0.0, 5e-324, 0.3],
                                 [2.5e-310, -1e-5, -0.0]])
def test_write_trajectory_matches_per_row_template_at_the_edges(tmp_path,
                                                                ext):
    """Hand-built steps: empty ones, more than 10 steps, blocks that end on
    a step boundary (after steps 3 and 4), a step longer than a block and
    blocks shared by several steps."""
    assert cli.TRAJECTORY_BLOCK_ROWS == 512
    sizes = [0, 3, 0, 509, 512, 700, 1, 0, 5, 300, 212, 2, 0]
    steps = hand_built_steps(np.random.default_rng(31), sizes)
    ext = np.array(ext)
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory(path, steps, ext)
    assert_same_lines(path.read_text(), per_row_trajectory(steps, ext))
    for few in ([], steps[:1], steps[:3]):
        cli._write_trajectory(path, few, ext)
        assert path.read_text() == per_row_trajectory(few, ext)
