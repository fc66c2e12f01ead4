"""Layer trace of towerlab, taken from outside the package.

``Tracer.install`` replaces every public function of every towerlab
module, plus the scipy names ``meshing.Delaunay`` and ``jssolver.cg``,
with a wrapper that records a span (name, start, end, parent).  Modules
bind each other's functions with ``from ... import``, so a function is
replaced under every name that holds it in every towerlab namespace;
patching only the defining module would miss those calls.
``Tracer.uninstall`` puts the originals back, so untraced rounds run the
unmodified program.

Counts ride on the spans they belong to: CG iterations through a
pass-through ``callback``, Newton steps from each returned
``SolveReport.iterations``, node and triangle counts of each mesh,
points per ``locate_many`` call, members per sequence and bytes per
written file.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = ("polygon", "meshing", "jssolver", "conjugate", "limits",
          "analytic", "formats", "cli")

# called once per number written; tracing them would time the tracer
UNTRACED = {"formats.fmt_float", "formats.emit_json"}

# foreign callables the layers bind under these names
FOREIGN = {"meshing": ("Delaunay",), "jssolver": ("cg",)}

WRITERS = ("formats.write_json", "formats.write_csv", "formats.write_obj")
POINT_QUERIES = ("jssolver.u_at", "jssolver.gradient_at", "jssolver.gradient_at_many")
INTEGRATORS = ("conjugate.conjugate_function", "conjugate.conjugate_surface")

# (metric, unit); README.md says which end-to-end metric each should move
ROUND_METRICS = (
    ("polygon.contains_calls", "count"), ("polygon.contains_s", "s"),
    ("polygon.boundary_distance_calls", "count"), ("polygon.boundary_distance_s", "s"),
    ("meshing.triangulate_calls", "count"), ("meshing.triangulate_self_s", "s"),
    ("meshing.nodes", "count"), ("meshing.triangles", "count"),
    ("meshing.delaunay_calls", "count"), ("meshing.delaunay_s", "s"),
    ("meshing.locate_many_calls", "count"), ("meshing.locate_points", "count"),
    ("meshing.locate_many_s", "s"),
    ("jssolver.rungs", "count"), ("jssolver.solve_capped_self_s", "s"),
    ("jssolver.newton_steps", "count"), ("jssolver.line_search_trials", "count"),
    ("jssolver.cg_calls", "count"), ("jssolver.cg_iterations", "count"),
    ("jssolver.cg_s", "s"), ("jssolver.core_mask_s", "s"),
    ("jssolver.point_queries", "count"), ("jssolver.point_query_s", "s"),
    ("conjugate.integrate_s", "s"), ("conjugate.flux_calls", "count"),
    ("conjugate.flux_s", "s"), ("conjugate.edge_flux_report_s", "s"),
    ("limits.members", "count"), ("limits.fallback_members", "count"),
    ("limits.solve_sequence_self_s", "s"), ("limits.detect_divergence_s", "s"),
    ("limits.normalized_limit_s", "s"),
    ("analytic.scherk_value_s", "s"),
    ("formats.write_s", "s"), ("formats.bytes_written", "bytes"),
    ("cli.load_config_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)

# the layers that set-up runs: parsing configs, meshing and the probe's ladder
SETUP_LAYERS = ("polygon", "meshing", "jssolver")
SETUP_METRICS = tuple((f"setup.{layer}.self_s", "s") for layer in SETUP_LAYERS)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.spans", "count"))
ALL_METRICS = ROUND_METRICS + SETUP_METRICS + TRACE_METRICS

NAME, START, END, PARENT, COUNTS = range(5)


def _counts_of(name, args, kwargs, result):
    """Counts recorded on a span once its call has returned."""
    if name == "meshing.triangulate":
        return {"nodes": len(result.nodes), "triangles": len(result.triangles)}
    if name == "meshing.locate_many":
        pts = args[1] if len(args) > 1 else kwargs["pts"]
        return {"points": len(pts)}
    if name == "jssolver.solve_capped":
        return {"newton": int(result.report.iterations)}
    if name == "limits.solve_sequence":
        return {"members": len(result.members)}
    if name in WRITERS:
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # --- recording -----------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def section(self, name):
        """Span of the benchmark's own around a set-up or a round."""
        return _Section(self, name)

    def _wrap(self, name, fn):
        tracer = self
        if name == "jssolver.cg":
            def wrapper(*args, **kwargs):
                rec = tracer._open(name)
                seen = [0]
                inner = kwargs.get("callback")

                def count(xk):
                    seen[0] += 1
                    if inner is not None:
                        inner(xk)

                kwargs["callback"] = count
                rec[START] = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                    rec[COUNTS] = {"iterations": seen[0]}
        else:
            def wrapper(*args, **kwargs):
                rec = tracer._open(name)
                rec[START] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                rec[COUNTS] = _counts_of(name, args, kwargs, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- patching -------------------------------------------------------

    def install(self):
        """Wrap every traced callable under every name that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "towerlab" or n.startswith("towerlab."))]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"towerlab.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and name not in UNTRACED):
                    targets[id(obj)] = (obj, self._wrap(name, obj))
            for attr in FOREIGN.get(layer, ()):
                obj = getattr(mod, attr)
                targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches = []

    # --- analysis -------------------------------------------------------

    def metrics(self, section):
        """Per-layer metrics of the spans inside one section."""
        spans = self.spans
        root, end = section.first, section.stop
        child = {}
        for i in range(root + 1, end):
            p = spans[i][PARENT]
            child[p] = child.get(p, 0.0) + spans[i][END] - spans[i][START]
        acc = {}

        def add(key, value):
            acc[key] = acc.get(key, 0) + value

        for i in range(root + 1, end):
            name, start, stop, parent, counts = spans[i]
            dur = stop - start
            layer = name.partition(".")[0]
            add(f"{layer}.self_s", dur - child.get(i, 0.0))
            add(f"{name}#calls", 1)
            add(f"{name}#s", dur)
            add(f"{name}#self_s", dur - child.get(i, 0.0))
            for k, v in (counts or {}).items():
                add(f"{name}#{k}", v)
            if name == "jssolver.energy" and spans[parent][NAME] == "jssolver.solve_capped":
                add("line_search_trials", 1)
            if name == "jssolver.last_capped" and self._under(i, "limits.solve_sequence"):
                add("fallback_members", 1)

        def get(key):
            return acc.get(key, 0)

        def total(fns, field):
            return sum(get(f"{f}#{field}") for f in fns)

        values = {
            "polygon.contains_calls": get("polygon.contains#calls"),
            "polygon.contains_s": get("polygon.contains#s"),
            "polygon.boundary_distance_calls": get("polygon.boundary_distance#calls"),
            "polygon.boundary_distance_s": get("polygon.boundary_distance#s"),
            "meshing.triangulate_calls": get("meshing.triangulate#calls"),
            "meshing.triangulate_self_s": get("meshing.triangulate#self_s"),
            "meshing.nodes": get("meshing.triangulate#nodes"),
            "meshing.triangles": get("meshing.triangulate#triangles"),
            "meshing.delaunay_calls": get("meshing.Delaunay#calls"),
            "meshing.delaunay_s": get("meshing.Delaunay#s"),
            "meshing.locate_many_calls": get("meshing.locate_many#calls"),
            "meshing.locate_points": get("meshing.locate_many#points"),
            "meshing.locate_many_s": get("meshing.locate_many#s"),
            "jssolver.rungs": get("jssolver.solve_capped#calls"),
            "jssolver.solve_capped_self_s": get("jssolver.solve_capped#self_s"),
            "jssolver.newton_steps": get("jssolver.solve_capped#newton"),
            "jssolver.line_search_trials": get("line_search_trials"),
            "jssolver.cg_calls": get("jssolver.cg#calls"),
            "jssolver.cg_iterations": get("jssolver.cg#iterations"),
            "jssolver.cg_s": get("jssolver.cg#s"),
            "jssolver.core_mask_s": get("jssolver.core_mask#s"),
            "jssolver.point_queries": total(POINT_QUERIES, "calls"),
            "jssolver.point_query_s": total(POINT_QUERIES, "s"),
            "conjugate.integrate_s": total(INTEGRATORS, "s"),
            "conjugate.flux_calls": get("conjugate.flux#calls"),
            "conjugate.flux_s": get("conjugate.flux#s"),
            "conjugate.edge_flux_report_s": get("conjugate.edge_flux_report#s"),
            "limits.members": get("limits.solve_sequence#members"),
            "limits.fallback_members": get("fallback_members"),
            "limits.solve_sequence_self_s": get("limits.solve_sequence#self_s"),
            "limits.detect_divergence_s": get("limits.detect_divergence#s"),
            "limits.normalized_limit_s": get("limits.normalized_limit#s"),
            "analytic.scherk_value_s": get("analytic.scherk_value#s"),
            "formats.write_s": total(WRITERS, "s"),
            "formats.bytes_written": total(WRITERS, "bytes"),
            "cli.load_config_s": get("cli.load_config#s"),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = get(f"{layer}.self_s")
        values["spans"] = end - root - 1
        return values

    def _under(self, i, name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def write(self, path):
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, stop, parent, counts) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name,
                       "start": round(start - t0, 9), "end": round(stop - t0, 9)}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


class _Section:
    """Root span; ``first`` is its index, ``stop`` one past its last child."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.first = self.stop = None

    def __enter__(self):
        self.first = len(self.tracer.spans)
        self.rec = self.tracer._open(self.name)
        self.rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        self.stop = len(self.tracer.spans)
        return False
