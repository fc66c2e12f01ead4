"""Config-driven experiment runner.

One config file describes one experiment: a domain (or a family of them),
mesh and solver parameters, and what to measure.  The runner writes all
artifacts into an output directory with fixed names and fixed float
formatting, so re-running a config reproduces the files byte for byte.
Errors come back as a machine-readable record on stdout and a nonzero
exit status.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import ScherkSquare, scherk_value
from .conjugate import (
    conjugate_surface,
    edge_flux_report,
    saddle_tower_piece,
    surface_to_obj,
    tower_to_obj,
    write_flux_csv,
    write_period_file,
)
from .formats import (
    ConfigError,
    emit_json,
    fmt_float,
    parse_float_list,
    parse_kv_file,
    parse_point_list,
    write_csv,
    write_json,
)
from .jssolver import (
    DEFAULT_CAPS,
    DEFAULT_CAUCHY_TOL,
    DEFAULT_CORE_MARGIN,
    DEFAULT_TOL,
    core_mask,
    graph_to_obj,
    report_to_json,
    solve_js,
)
from .limits import (
    DEFAULT_CAND_TOL,
    DEFAULT_FLUX_SLACK,
    DEFAULT_GRAD_BOUND,
    DEFAULT_SHRINK,
    NotSpecial,
    detect_divergence,
    normalized_limit,
    rhombus_decomposition,
    sequence_report,
    solve_sequence,
    write_sequence_csv,
)
from .meshing import mesh_to_obj, triangulate
from .polygon import (
    from_vertices,
    load_domain,
    near_special_hexagon,
    regular_polygon,
    split_rectangle,
    unit_square,
)

MODES = ("solve", "flux-report", "sequence", "compare", "export")

_BASE_KEYS = {"mode", "domain", "h", "g", "out"}
_SOLVER_KEYS = {"caps", "tol", "cauchy_tol"}
_SEQ_KEYS = {"probes", "candidate_tol", "flux_slack", "grad_bound", "shrink",
             "anchor", "window", "window_center", "grid", "limit_tol"}
_WINDOW_KEYS = {"window", "window_center", "grid"}
# core_margin feeds solve_js's gate in the single-domain solve modes;
# sequences gate their members at the default margin
_SOLVE_KEYS = _BASE_KEYS | _SOLVER_KEYS | {"core_margin"}
_MODE_KEYS = {
    "solve": _SOLVE_KEYS,
    "flux-report": _SOLVE_KEYS,
    "compare": _SOLVE_KEYS,
    "sequence": _BASE_KEYS | _SOLVER_KEYS | _SEQ_KEYS,
    "export": _BASE_KEYS,
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    domains: tuple
    h: float
    g: float
    caps: tuple = DEFAULT_CAPS
    tol: float = DEFAULT_TOL
    cauchy_tol: float = DEFAULT_CAUCHY_TOL
    core_margin: float = DEFAULT_CORE_MARGIN
    probes: tuple = ()
    out: str | None = None
    candidate_tol: float = DEFAULT_CAND_TOL
    flux_slack: float = DEFAULT_FLUX_SLACK
    grad_bound: float = DEFAULT_GRAD_BOUND
    shrink: float = DEFAULT_SHRINK
    anchor: tuple | None = None
    window: float = 0.6
    window_center: tuple | None = None
    grid: int = 25
    limit_tol: float = DEFAULT_CAND_TOL


def _parse_domain(value, base_dir, path, line):
    parts = value.split(None, 1)
    kind = parts[0] if parts else ""
    arg = parts[1].strip() if len(parts) > 1 else ""
    if kind == "square":
        if arg:
            raise ConfigError("domain 'square' takes no argument", path, line)
        return unit_square()
    if kind == "regular":
        return regular_polygon(_parse_int(arg, "regular", path, line))
    if kind == "split-rectangle":
        return split_rectangle(_parse_int(arg, "split-rectangle", path, line))
    if kind == "near-special-hexagon":
        try:
            return near_special_hexagon(float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad near-special-hexagon argument: {exc}", path, line) from None
    if kind == "vertices":
        pts = parse_point_list(arg, path, line)
        return from_vertices(pts)
    if kind == "file":
        full = arg if os.path.isabs(arg) else os.path.join(base_dir, arg)
        if not os.path.exists(full):
            raise ConfigError(f"domain file not found: {arg}", path, line)
        poly, _name = load_domain(full)
        return poly
    raise ConfigError(
        f"unknown domain {value!r} (square | regular N | split-rectangle N | "
        "near-special-hexagon DELTA | vertices (x,y), ... | file PATH)", path, line)


def _parse_int(raw, what, path, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{what} needs an integer argument, got {raw!r}", path, line) from None


def _parse_float(raw, key, path, line, lo=None, hi=None):
    try:
        x = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}", path, line) from None
    if lo is not None and not x > lo:
        raise ConfigError(f"{key} must be > {lo}, got {raw}", path, line)
    if hi is not None and not x <= hi:
        raise ConfigError(f"{key} must be <= {hi}, got {raw}", path, line)
    return x


def load_config(path):
    """Parse and validate an experiment config file."""
    items = parse_kv_file(path)
    spath = str(path)
    base_dir = os.path.dirname(os.path.abspath(spath))
    seen = {}
    domain_items = []
    for key, value, line in items:
        if key == "domain":
            domain_items.append((value, line))
            continue
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", spath, line)
        seen[key] = (value, line)
    if "mode" not in seen:
        raise ConfigError("missing key 'mode'", spath)
    mode, mode_line = seen["mode"]
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (one of {', '.join(MODES)})",
                          spath, mode_line)
    allowed = _MODE_KEYS[mode]
    for key, (_value, line) in seen.items():
        if key not in allowed:
            raise ConfigError(f"key {key!r} not allowed in mode {mode!r}", spath, line)
        # the sample window is read only around an anchor
        if key in _WINDOW_KEYS and "anchor" not in seen:
            raise ConfigError(f"key {key!r} needs 'anchor'", spath, line)
    if not domain_items:
        raise ConfigError("missing key 'domain'", spath)
    if mode != "sequence" and len(domain_items) != 1:
        raise ConfigError(f"mode {mode!r} needs exactly one domain",
                          spath, domain_items[1][1])
    if mode == "sequence" and len(domain_items) < 3:
        raise ConfigError("mode 'sequence' needs at least three domain lines",
                          spath, domain_items[0][1])
    domains = tuple(_parse_domain(v, base_dir, spath, ln) for v, ln in domain_items)

    kw = {"mode": mode, "domains": domains}
    for key in ("h", "g"):
        if key not in seen:
            raise ConfigError(f"missing key {key!r}", spath)
        # triangulate's own range; checked here so the error has a line
        kw[key] = _parse_float(seen[key][0], key, spath, seen[key][1], 0.0, 1.0)

    def opt_float(key, lo, hi):
        if key in seen:
            kw[key] = _parse_float(seen[key][0], key, spath, seen[key][1], lo, hi)

    if "caps" in seen:
        caps = parse_float_list(seen["caps"][0], spath, seen["caps"][1])
        arr = np.asarray(caps)
        if len(arr) == 0 or (arr <= 0).any() or (np.diff(arr) <= 0).any():
            raise ConfigError("caps must be a positive increasing list",
                              spath, seen["caps"][1])
        kw["caps"] = tuple(caps)
    opt_float("tol", 0.0, 1.0)
    opt_float("cauchy_tol", 0.0, 1.0)
    # a margin of zero or less lets boundary nodes into the Cauchy gate
    opt_float("core_margin", 0.0, 0.5)
    if "probes" in seen:
        kw["probes"] = tuple(parse_point_list(seen["probes"][0], spath, seen["probes"][1]))
    if "out" in seen:
        kw["out"] = seen["out"][0]
    opt_float("candidate_tol", 0.0, 2.0)
    opt_float("flux_slack", 0.0, 1.0)
    opt_float("grad_bound", 0.0, None)
    opt_float("shrink", 0.0, 0.49)
    if "anchor" in seen:
        pts = parse_point_list(seen["anchor"][0], spath, seen["anchor"][1])
        if len(pts) != 1:
            raise ConfigError("anchor must be a single point", spath, seen["anchor"][1])
        kw["anchor"] = pts[0]
    opt_float("window", 0.0, None)
    if "window_center" in seen:
        pts = parse_point_list(seen["window_center"][0], spath, seen["window_center"][1])
        if len(pts) != 1:
            raise ConfigError("window_center must be a single point",
                              spath, seen["window_center"][1])
        kw["window_center"] = pts[0]
    if "grid" in seen:
        n = _parse_int(seen["grid"][0], "grid", spath, seen["grid"][1])
        if n < 2:
            raise ConfigError("grid must be >= 2", spath, seen["grid"][1])
        kw["grid"] = n
    opt_float("limit_tol", 0.0, 1.0)
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# mode runners

def _solve(cfg):
    """Mesh the config's one domain and run the gated cap ladder on it."""
    mesh = triangulate(cfg.domains[0], cfg.h, cfg.g)
    return solve_js(mesh, caps=cfg.caps, tol=cfg.tol, cauchy_tol=cfg.cauchy_tol,
                    core_margin=cfg.core_margin)


def _run_solve(cfg, out):
    sol = _solve(cfg)
    graph_to_obj(sol, os.path.join(out, "graph.obj"))
    surf = conjugate_surface(sol)
    surface_to_obj(surf, os.path.join(out, "conjugate.obj"))
    piece = saddle_tower_piece(surf)
    tower_to_obj(piece, os.path.join(out, "tower.obj"))
    write_period_file(piece, os.path.join(out, "period.json"))
    report_to_json(sol, os.path.join(out, "report.json"))
    print(f"stabilized cap {fmt_float(sol.report.stabilized_cap)}")
    print("conjugate loop defects "
          + ", ".join(fmt_float(d) for d in surf.loop_defects))
    for name in ("graph.obj", "conjugate.obj", "tower.obj", "period.json", "report.json"):
        print(f"wrote {os.path.join(out, name)}")
    return 0


def _run_flux_report(cfg, out):
    rows = edge_flux_report(_solve(cfg))
    path = os.path.join(out, "flux.csv")
    write_flux_csv(rows, path)
    total = sum(r.flux for r in rows)
    worst = max(r.defect for r in rows)
    print(f"flux sum {fmt_float(total)} max defect {fmt_float(worst)}")
    print(f"wrote {path}")
    return 0


def _run_compare(cfg, out):
    poly = cfg.domains[0]
    ref = unit_square()
    if poly.edge_count != 4 or not np.allclose(poly.vertices, ref.vertices, atol=1e-12):
        raise ConfigError("compare mode is defined for the unit square domain")
    sol = _solve(cfg)
    mesh = sol.mesh
    sq = ScherkSquare()
    core = np.flatnonzero(core_mask(mesh, cfg.core_margin))
    oracle = scherk_value(sq, mesh.nodes[core])
    err = np.abs(sol.u[core] - oracle)
    rows = [(int(i), float(mesh.nodes[i, 0]), float(mesh.nodes[i, 1]),
             float(sol.u[i]), float(o), float(e))
            for i, o, e in zip(core, oracle, err)]
    path = os.path.join(out, "compare.csv")
    write_csv(path, ["node", "x", "y", "u", "oracle", "abs_err"], rows)
    payload = {
        "core_margin": cfg.core_margin,
        "core_nodes": int(len(core)),
        "stabilized_cap": sol.report.stabilized_cap,
        "max_core_error": float(err.max()),
        "mean_core_error": float(err.mean()),
    }
    write_json(os.path.join(out, "report.json"), payload)
    print(f"max core error {fmt_float(err.max())} over {len(core)} nodes")
    print(f"wrote {path}")
    print(f"wrote {os.path.join(out, 'report.json')}")
    return 0


def _run_sequence(cfg, out):
    e = solve_sequence(cfg.domains, cfg.h, cfg.g, caps=cfg.caps, tol=cfg.tol,
                       cauchy_tol=cfg.cauchy_tol, limit_tol=cfg.limit_tol,
                       probes=cfg.probes)
    rep = detect_divergence(e, tol=cfg.candidate_tol, flux_slack=cfg.flux_slack,
                            grad_bound=cfg.grad_bound, shrink=cfg.shrink)
    payload = sequence_report(e, rep)
    try:
        rd = rhombus_decomposition(e.limit)
        payload["rhombi"] = [[[float(x) for x in p] for p in np.asarray(r)]
                             for r in rd.rhombi]
        payload["translation"] = (None if rd.translation is None
                                  else [float(x) for x in rd.translation])
    except NotSpecial:
        pass
    csv_path = os.path.join(out, "sequence.csv")
    write_sequence_csv(e, rep, csv_path)
    if cfg.anchor is not None:
        window = cfg.window if cfg.window_center is None else (cfg.window_center, cfg.window)
        nl = normalized_limit(e, cfg.anchor, window, grid=cfg.grid,
                              cand_tol=cfg.candidate_tol)
        pts = nl.points.reshape(-1, 2)
        vals = nl.values.ravel()
        rows = [(float(p[0]), float(p[1]), float(v)) for p, v in zip(pts, vals)]
        write_csv(os.path.join(out, "samples.csv"), ["x", "y", "value"], rows)
        payload["normalized"] = {
            "tag": nl.tag,
            "anchor": [float(x) for x in nl.anchor],
            "window": cfg.window,
            "grid": cfg.grid,
            "member_index": nl.member_index,
        }
        print(f"limit tag {nl.tag}")
    write_json(os.path.join(out, "report.json"), payload)
    print(f"limit kind {e.limit.kind}"
          + (" (special)" if e.limit.special else ""))
    for tr in rep.candidates:
        seg = np.asarray(tr.segment)
        print(f"candidate ({fmt_float(seg[0, 0])}, {fmt_float(seg[0, 1])})-"
              f"({fmt_float(seg[1, 0])}, {fmt_float(seg[1, 1])}): {tr.verdict}")
    print(f"wrote {csv_path}")
    print(f"wrote {os.path.join(out, 'report.json')}")
    return 0


def _run_export(cfg, out):
    mesh = triangulate(cfg.domains[0], cfg.h, cfg.g)
    path = os.path.join(out, "mesh.obj")
    mesh_to_obj(mesh, path)
    print(f"wrote {path}")
    return 0


def run(cfg, out=None):
    """Execute a config; artifacts land in the output directory.

    Module errors propagate to the caller; main() turns them into a
    machine-readable record and a nonzero status.
    """
    out = out or cfg.out
    if not out:
        raise ConfigError("no output directory (config key 'out' or flag --out)")
    os.makedirs(out, exist_ok=True)
    if cfg.mode == "solve":
        return _run_solve(cfg, out)
    if cfg.mode == "flux-report":
        return _run_flux_report(cfg, out)
    if cfg.mode == "compare":
        return _run_compare(cfg, out)
    if cfg.mode == "sequence":
        return _run_sequence(cfg, out)
    if cfg.mode == "export":
        return _run_export(cfg, out)
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def _provenance(exc):
    mod = type(exc).__module__
    if mod.startswith("towerlab."):
        return mod.split(".", 1)[1]
    return mod


def error_record(exc):
    return {"error": type(exc).__name__, "module": _provenance(exc),
            "message": str(exc)}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="towerlab",
        description="solve marked-polygon minimal graphs and their conjugate towers")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="reserved; the solver is deterministic")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.mode != args.command:
            raise ConfigError(
                f"config mode {cfg.mode!r} does not match subcommand {args.command!r}")
        return run(cfg, out=args.out)
    except Exception as exc:  # every failure becomes a record + status 1
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        print(emit_json(error_record(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
