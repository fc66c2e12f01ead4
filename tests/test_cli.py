"""Config parsing, mode runners, artifacts, error records, determinism.

End-to-end runs use coarse meshes so the whole module stays fast; the
fine-mesh numbers live with the acceptance tests.  Determinism is
checked at the byte level on every artifact a rerun touches.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from towerlab import jssolver
from towerlab.cli import ExperimentConfig, error_record, load_config, main, run
from towerlab.formats import ConfigError
from towerlab.meshing import OutsideDomain
from towerlab.polygon import dump_domain, regular_polygon, unit_square

HONEST = "cauchy_tol = 0.05"


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def coarse_solve_cfg(tmp_path, extra=""):
    return write_cfg(tmp_path / "solve.cfg", f"""
mode = solve
domain = square
h = 0.25
g = 1.0
{HONEST}
{extra}
""")


# ---------------------------------------------------------------------------
# config parsing

def test_load_full_config(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", """
# comment line
mode = solve
domain = square
h = 0.05
g = 0.25
caps = 2, 3, 4
tol = 1e-8
cauchy_tol = 0.02
core_margin = 0.2
out = results
""")
    cfg = load_config(p)
    assert cfg.mode == "solve"
    assert len(cfg.domains) == 1
    assert cfg.domains[0].edge_count == 4
    assert cfg.h == 0.05 and cfg.g == 0.25
    assert cfg.caps == (2.0, 3.0, 4.0)
    assert cfg.tol == 1e-8
    assert cfg.cauchy_tol == 0.02
    assert cfg.core_margin == 0.2
    assert cfg.out == "results"
    p = write_cfg(tmp_path / "s.cfg", "mode = sequence\n" + "domain = square\n" * 3
                  + "h = 0.05\ng = 0.25\nprobes = (0.5, 0.5), (0.25, 0.75)\n")
    assert load_config(p).probes == ((0.5, 0.5), (0.25, 0.75))


def test_unknown_key_rejected_with_line(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", "mode = solve\ndomain = square\nh = 0.1\ng = 1\nwhat = 1\n")
    with pytest.raises(ConfigError, match=r":5"):
        load_config(p)


def test_mode_specific_keys_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = square\nh = 0.1\ng = 1\nanchor = (0.5, 0.5)\n")
    with pytest.raises(ConfigError, match="anchor"):
        load_config(p)


@pytest.mark.parametrize("mode, key", [
    ("solve", "probes"), ("flux-report", "probes"), ("compare", "probes"),
    ("export", "probes"), ("sequence", "core_margin"), ("export", "core_margin"),
])
def test_ignored_keys_rejected_with_line(tmp_path, mode, key):
    # a key the mode never reads is an error, not a silent no-op
    n = 3 if mode == "sequence" else 1
    value = "(0.5, 0.5)" if key == "probes" else "0.2"
    p = write_cfg(tmp_path / "c.cfg", f"mode = {mode}\n" + "domain = square\n" * n
                  + f"h = 0.1\ng = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"c.cfg:{n + 4}: key '{key}' not allowed"):
        load_config(p)


@pytest.mark.parametrize("margin", ["0", "-0.1"])
def test_nonpositive_core_margin_rejected_with_line(tmp_path, margin):
    # boundary nodes in the Cauchy gate would turn any domain into a
    # NoStabilization verdict
    p = write_cfg(tmp_path / "c.cfg", "mode = compare\ndomain = square\nh = 0.1\ng = 0.5\n"
                  f"core_margin = {margin}\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:5: core_margin must be > 0"):
        load_config(p)


@pytest.mark.parametrize("key", ["h", "g"])
def test_mesh_size_above_one_rejected_with_line(tmp_path, key):
    # triangulate takes h and g in (0, 1]; the config names the line
    values = {"h": "0.5", "g": "0.5", key: "2"}
    p = write_cfg(tmp_path / "c.cfg", "mode = export\ndomain = square\n"
                  f"h = {values['h']}\ng = {values['g']}\n")
    line = 3 if key == "h" else 4
    with pytest.raises(ConfigError, match=rf"c\.cfg:{line}: {key} must be <= 1\.0, got 2$"):
        load_config(p)


# sequence keys: a value in range, the field it lands in, a value out of range
SEQUENCE_KEYS = [
    ("candidate_tol", "0.1", 0.1, "3"),
    ("flux_slack", "0.1", 0.1, "1.5"),
    ("grad_bound", "20", 20.0, "0"),
    ("shrink", "0.1", 0.1, "-0.2"),
    ("shrink", "0.49", 0.49, "0"),
    ("anchor", "(0.25, 0.5)", (0.25, 0.5), "(0.1, 0.1), (0.2, 0.2)"),
    ("window", "0.4", 0.4, "0"),
    ("window_center", "(0.5, 0.5)", (0.5, 0.5), "(0.1, 0.1), (0.2, 0.2)"),
    ("grid", "9", 9, "1"),
    ("limit_tol", "0.01", 0.01, "2"),
]


@pytest.mark.parametrize("key, good, want, bad", SEQUENCE_KEYS)
def test_sequence_key_parsed_or_rejected_with_line(tmp_path, key, good, want, bad):
    head = "mode = sequence\n" + "domain = square\n" * 3 + "h = 0.1\ng = 1\n"
    # the window keys are read only with an anchor, given after the key
    tail = "anchor = (0.5, 0.5)\n" if key in ("window", "window_center", "grid") else ""
    p = write_cfg(tmp_path / "c.cfg", head + f"{key} = {good}\n" + tail)
    assert getattr(load_config(p), key) == want
    p = write_cfg(tmp_path / "c.cfg", head + f"{key} = {bad}\n" + tail)
    with pytest.raises(ConfigError, match=rf"c\.cfg:7: {key} must"):
        load_config(p)


@pytest.mark.parametrize("key, value", [
    ("window", "0.3"), ("window_center", "(0.5, 0.5)"), ("grid", "7"),
])
def test_window_key_without_anchor_rejected_with_line(tmp_path, key, value):
    # without an anchor no samples are taken, so the key would do nothing
    p = write_cfg(tmp_path / "c.cfg", "mode = sequence\n" + "domain = square\n" * 3
                  + f"h = 0.1\ng = 1\n{key} = {value}\nprobes = (0.5, 0.5)\n")
    with pytest.raises(ConfigError, match=rf"c\.cfg:7: key '{key}' needs 'anchor'"):
        load_config(p)


def test_missing_mesh_size(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", "mode = solve\ndomain = square\ng = 1\n")
    with pytest.raises(ConfigError, match="'h'"):
        load_config(p)


def test_caps_must_increase(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = square\nh = 0.1\ng = 1\ncaps = 3, 2\n")
    with pytest.raises(ConfigError, match="increasing"):
        load_config(p)


def test_single_domain_modes_reject_extras(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = square\ndomain = square\nh = 0.1\ng = 1\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(p)


def test_sequence_needs_three_domains(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  "mode = sequence\ndomain = square\ndomain = square\nh = 0.1\ng = 1\n")
    with pytest.raises(ConfigError, match="three"):
        load_config(p)


def test_domain_grammar(tmp_path):
    dom = tmp_path / "hex.domain"
    dump_domain(dom, regular_polygon(3), name="hexagon")
    p = write_cfg(tmp_path / "c.cfg", f"""
mode = sequence
domain = regular 3
domain = split-rectangle 3
domain = near-special-hexagon 0.2
domain = vertices (0,0), (1,0), (1,1), (0,1)
domain = file {dom.name}
h = 0.1
g = 1
""")
    cfg = load_config(p)
    assert [d.edge_count for d in cfg.domains] == [6, 6, 6, 4, 6]
    assert np.allclose(cfg.domains[0].vertices, cfg.domains[4].vertices)


def test_unknown_domain_kind(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", "mode = solve\ndomain = triangle\nh = 0.1\ng = 1\n")
    with pytest.raises(ConfigError, match="unknown domain"):
        load_config(p)


def test_missing_domain_file(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = file nope.domain\nh = 0.1\ng = 1\n")
    with pytest.raises(ConfigError, match="not found"):
        load_config(p)


# ---------------------------------------------------------------------------
# mode runners

def test_solve_artifacts(tmp_path, capsys):
    cfg = load_config(coarse_solve_cfg(tmp_path))
    out = tmp_path / "out"
    assert run(cfg, out=str(out)) == 0
    for name in ("graph.obj", "conjugate.obj", "tower.obj", "period.json", "report.json"):
        assert (out / name).exists()
    rep = json.loads((out / "report.json").read_text())
    assert rep["stabilized_cap"] is not None
    per = json.loads((out / "period.json").read_text())
    assert per == {"period": [0.0, 0.0, 2.0]}
    assert "stabilized cap" in capsys.readouterr().out


def test_solve_rerun_byte_identical(tmp_path):
    cfg = load_config(coarse_solve_cfg(tmp_path))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg, out=str(out1))
    run(cfg, out=str(out2))
    for name in ("graph.obj", "conjugate.obj", "tower.obj", "period.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flux_report_artifacts(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  f"mode = flux-report\ndomain = square\nh = 0.25\ng = 1.0\n{HONEST}\n")
    out = tmp_path / "out"
    assert run(load_config(p), out=str(out)) == 0
    lines = (out / "flux.csv").read_text().splitlines()
    assert lines[0] == "edge,marking,flux,defect"
    assert len(lines) == 5


def test_compare_artifacts(tmp_path, capsys):
    p = write_cfg(tmp_path / "c.cfg",
                  f"mode = compare\ndomain = square\nh = 0.25\ng = 1.0\n{HONEST}\n")
    out = tmp_path / "out"
    assert run(load_config(p), out=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert 0.0 < rep["max_core_error"] < 1.0
    assert rep["core_nodes"] > 0
    first = (out / "compare.csv").read_text().splitlines()[0]
    assert first == "node,x,y,u,oracle,abs_err"
    assert "max core error" in capsys.readouterr().out


def test_compare_rejects_non_square(tmp_path):
    p = write_cfg(tmp_path / "c.cfg",
                  f"mode = compare\ndomain = regular 3\nh = 0.25\ng = 1.0\n{HONEST}\n")
    with pytest.raises(ConfigError, match="unit square"):
        run(load_config(p), out=str(tmp_path / "out"))


def test_export_artifacts(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", "mode = export\ndomain = regular 3\nh = 0.2\ng = 1.0\n")
    out = tmp_path / "out"
    assert run(load_config(p), out=str(out)) == 0
    text = (out / "mesh.obj").read_text()
    assert text.startswith("v ")
    assert (out / "mesh.obj").exists()
    assert not (out / "graph.obj").exists()


def test_sequence_artifacts(tmp_path, capsys):
    p = write_cfg(tmp_path / "c.cfg", f"""
mode = sequence
domain = square
domain = square
domain = square
h = 0.25
g = 1.0
{HONEST}
probes = (0.5, 0.5)
anchor = (0.5, 0.5)
window = 0.4
grid = 7
""")
    out = tmp_path / "out"
    assert run(load_config(p), out=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["limit_kind"] == "bounded-polygon"
    assert rep["candidates"] == []
    assert "rhombi" not in rep
    assert rep["normalized"]["tag"] == "saddle-tower-graph"
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "x,y,value"
    assert len(samples) == 1 + 7 * 7
    assert "limit kind bounded-polygon" in capsys.readouterr().out


def test_sequence_special_writes_rhombi(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", f"""
mode = sequence
domain = split-rectangle 3
domain = split-rectangle 3
domain = split-rectangle 3
h = 0.2
g = 1.0
{HONEST}
""")
    out = tmp_path / "out"
    assert run(load_config(p), out=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["limit_special"] is True
    assert len(rep["rhombi"]) == 2
    assert rep["translation"] is None
    assert len(rep["candidates"]) == 1


def test_run_without_out_dir(tmp_path):
    cfg = load_config(coarse_solve_cfg(tmp_path))
    with pytest.raises(ConfigError, match="output directory"):
        run(cfg)


def test_config_out_key_used(tmp_path):
    out = tmp_path / "from_cfg"
    cfg = load_config(coarse_solve_cfg(tmp_path, extra=f"out = {out}"))
    assert run(cfg) == 0
    assert (out / "report.json").exists()


# ---------------------------------------------------------------------------
# entry point and error records

def test_main_success(tmp_path, capsys):
    c = coarse_solve_cfg(tmp_path)
    assert main(["solve", "--config", c, "--out", str(tmp_path / "out")]) == 0
    assert "wrote" in capsys.readouterr().out


def test_main_seed_accepted(tmp_path):
    c = write_cfg(tmp_path / "c.cfg", "mode = export\ndomain = square\nh = 0.25\ng = 1.0\n")
    assert main(["export", "--config", c, "--out", str(tmp_path / "out"),
                 "--seed", "7"]) == 0


def test_main_mode_mismatch(tmp_path, capsys):
    c = coarse_solve_cfg(tmp_path)
    assert main(["export", "--config", c, "--out", str(tmp_path / "out")]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["error"] == "ConfigError"
    assert "does not match" in rec["message"]


def test_main_error_record_is_json(tmp_path, capsys):
    c = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = square\nh = 0.1\ng = 1\nbad = 1\n")
    assert main(["solve", "--config", c, "--out", str(tmp_path / "out")]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"error", "module", "message"}
    assert rec["module"] == "formats"
    assert ":5" in rec["message"]


def test_main_module_provenance(tmp_path, capsys):
    # the split rectangle never stabilizes; the record points at the solver
    c = write_cfg(tmp_path / "c.cfg",
                  "mode = solve\ndomain = split-rectangle 3\nh = 0.25\ng = 1.0\n")
    assert main(["solve", "--config", c, "--out", str(tmp_path / "out")]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["error"] == "NoStabilization"
    assert rec["module"] == "jssolver"


def test_solver_failure_record_names_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(jssolver, "MAX_NEWTON", 0)
    c = coarse_solve_cfg(tmp_path)
    assert main(["solve", "--config", c, "--out", str(tmp_path / "out")]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["error"] == "NoDescent"
    assert rec["module"] == "jssolver"
    assert "at cap 2," in rec["message"]


def test_error_record_shape():
    rec = error_record(OutsideDomain("point (2, 2) outside the mesh"))
    assert rec == {"error": "OutsideDomain", "module": "meshing",
                   "message": "point (2, 2) outside the mesh"}


# ---------------------------------------------------------------------------
# shipped configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of every artifact each shipped config writes.  Performance work
# must reproduce these bytes exactly; ROADMAP item 9 will re-pin them as a
# declared change of what the artifacts record.
SHIPPED_ARTIFACTS = {
    "hexagon_collapse": {
        "report.json": "0d3142268c5326d3444927900fb7f0b640cb2e34f0c49fd08d2dc63848a764ba",
        "samples.csv": "57249ee9d7a236290de61708608a631d2c3d332b2df7a2c09526c2c5e9662f53",
        "sequence.csv": "da95226a274a0c047ff2e4789bf959e29b1f9b9f216e433b3ec23d1cb13afc0f",
    },
    "octagon_export": {
        "mesh.obj": "732dff503872cb931697823d10eb1aee006d647a637fdfd6051dbe506c0d4fb9",
    },
    "square_compare": {
        "compare.csv": "10d952da89b362acf0d4ee04c63f69b4399c1d1b3c467c6c89058b5575ad5cdb",
        "report.json": "8f205c0201e5852a93a8faf1b914f7fdd24750010ad6ed24b57c9ca7ec58d466",
    },
    "square_flux": {
        "flux.csv": "99a270a1fb83681d9c436ffaa4f5df11962b02ff8e5ddb53838f587331bf3c27",
    },
    "square_solve": {
        "conjugate.obj": "a0a58ab76c9bb1d03c8ed2eb58520fadd66f6e7cdf86aa8f694a47724632a657",
        "graph.obj": "11a12452076c18b0cc246dc23b9e0853778cbc11e502a8bf0dc1264229c52aa1",
        "period.json": "644fd0e232e36486f95f7f889626a5cfbe95f206d5eee6c6bde790ef217fc3ca",
        "report.json": "677fafd7ed98547c9c78ffadfdd1412a84892f3ce600c52a5a5c062556d822c6",
        "tower.obj": "93716df2b2dea0f0bfb900f819415d7ff3e5196d9f41a4499b09c1f90b302035",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_ARTIFACTS))
def test_shipped_config_artifacts_pinned(name, tmp_path):
    path = CONFIGS / f"{name}.cfg"
    out = tmp_path / name
    assert main([load_config(str(path)).mode, "--config", str(path), "--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == SHIPPED_ARTIFACTS[name]
