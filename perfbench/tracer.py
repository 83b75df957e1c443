"""Per-layer tracing of one ``minsurf`` run, from outside the program.

``Tracer.install`` replaces public functions and methods of the ``minsurf``
modules with timing wrappers.  A function is replaced in *every* module
namespace that binds it (``solve_minimal_surface`` is bound in ``forward``,
``dnmap`` and ``linearize``; ``splu`` in ``scipy.sparse.linalg`` and
``inverse``), so each call is seen once whichever module makes it.  A wrapped
function that a later version of the program no longer has is reported as
absent with zero calls.

Each call records a span: name, start, end, parent span and a few attributes
(mesh size, factor fill, boundary-data digest).  Spans stay in memory until
the run ends.  A span's self time is its duration minus the union of its
child spans.  The program runs on one thread (``workers`` = 1), so spans
nest strictly and no layer queues work: there is no waiting time to record.
"""

import functools
import hashlib
import importlib
import sys
import time

# layer -> (module, attribute path) of each wrapped function or method
TARGETS = {
    "geometry": [
        ("minsurf.geometry", "disc"),
        ("minsurf.geometry", "square"),
        ("minsurf.geometry", "annulus"),
        ("minsurf.geometry", "Mesh.__init__"),
        ("minsurf.geometry", "metric_at_quadrature"),
        ("minsurf.geometry", "assemble_weighted_stiffness"),
        ("minsurf.geometry", "boundary_geometry"),
    ],
    "forward": [
        ("minsurf.forward", "solve_minimal_surface"),
        ("minsurf.forward", "solve_laplace_beltrami"),
        ("minsurf.forward", "mse_linearized_operator"),
        ("minsurf.forward", "mse_residual"),
    ],
    "splu": [
        ("scipy.sparse.linalg", "splu"),
    ],
    "linearize": [
        ("minsurf.linearize", "third_linearization_pde"),
        ("minsurf.linearize", "EpsilonCombination.solve"),
    ],
    "dnmap": [
        ("minsurf.dnmap", "dn_nonlinear"),
        ("minsurf.dnmap", "dn_from_area_data"),
        ("minsurf.dnmap", "dn_third_derivative"),
        ("minsurf.dnmap", "area"),
    ],
    "identity": [
        ("minsurf.identity", "q_functional"),
        ("minsurf.identity", "integral_identity_check"),
    ],
    "inverse": [
        ("minsurf.inverse", "HarmonicExtension.__init__"),
        ("minsurf.inverse", "HarmonicExtension.extend"),
        ("minsurf.inverse", "make_interior_probe"),
        ("minsurf.inverse", "recover_q_point"),
    ],
    "cli": [
        ("minsurf.cli", "run"),
        ("minsurf.cli", "write_csv"),
    ],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _mesh_size(args, kwargs, result):
    mesh = _arg(args, kwargs, 0, "mesh")
    return {"triangles": len(mesh.triangles)}


def _built_mesh(args, kwargs, result):
    mesh = args[0]
    return {"vertices": len(mesh.vertices), "triangles": len(mesh.triangles)}


class Tracer:
    """Span recorder plus the wrappers that feed it; one per traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self.absent = []         # "module:attr" targets not found
        self._stack = []
        self._keep = {}          # id -> object, so recorded ids stay unique
        self._boundary_values = None

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, annotate=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if annotate is not None:
            span[4] = annotate(args, kwargs, result)
        return result

    def _wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target found; record the missing ones as absent."""
        geometry = importlib.import_module("minsurf.geometry")
        self._boundary_values = getattr(geometry, "boundary_values", None)
        annotations = {
            "geometry.Mesh.__init__": _built_mesh,
            "geometry.assemble_weighted_stiffness": self._stiffness_key,
            "forward.mse_linearized_operator": _mesh_size,
            "forward.solve_minimal_surface": self._solve_digest,
            "identity.q_functional": _mesh_size,
        }
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                name = f"{layer}.{path}"
                if not self._install_one(module_name, path, name,
                                         annotations.get(name)):
                    self.absent.append(f"{module_name}:{path}")
        return self

    def _install_one(self, module_name, path, name, annotate):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        if owner_name:  # a method: replace it on the class
            original = owner.__dict__.get(attr)
            if original is None:
                return False
            setattr(owner, attr, self._wrap(name, original, annotate))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        if name == "splu.splu":
            wrapper = self._wrap_factorization(original)
        else:
            wrapper = self._wrap(name, original, annotate)
        # rebind in every module that holds this very object
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == module_name
                                   or mod_name.startswith("minsurf")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def _wrap_factorization(self, splu):
        @functools.wraps(splu)
        def wrapper(A, *args, **kwargs):
            lu = self.call("splu.splu", splu, (A,) + args, kwargs,
                           lambda a, k, r: {"matrix_nnz": A.nnz,
                                            "factor_nnz": r.nnz})
            return _FactorProxy(lu, self)

        return wrapper

    # -- annotations that need tracer state ----------------------------------

    def _stiffness_key(self, args, kwargs, result):
        mesh = _arg(args, kwargs, 0, "mesh")
        metric = _arg(args, kwargs, 1, "metric")
        self._keep.update({id(mesh): mesh, id(metric): metric})
        return {"pair": [id(mesh), id(metric)]}

    def _solve_digest(self, args, kwargs, result):
        mesh = _arg(args, kwargs, 0, "mesh")
        metric = _arg(args, kwargs, 1, "metric")
        data = _arg(args, kwargs, 2, "boundary_data")
        self._keep.update({id(mesh): mesh, id(metric): metric})
        if self._boundary_values is None:  # gone in a later version
            return {"data": None}
        values = self._boundary_values(mesh, data)
        digest = hashlib.sha1(values.tobytes()).hexdigest()
        return {"data": f"{id(mesh)}/{id(metric)}/{digest}"}

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus its children's union."""
        children = [[] for _ in self.spans]
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for span, kids in zip(self.spans, children):
            covered = 0.0
            end = span[1]
            for lo, hi in sorted(kids):
                lo = max(lo, end)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            out.append(span[2] - span[1] - covered)
        return out

    def by_name(self):
        """Per span name: calls, self seconds, and the attribute lists."""
        table = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = table.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                               "total_s": 0.0, "attrs": []})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += span[2] - span[1]
            if span[4] is not None:
                entry["attrs"].append(span[4])
        return table

    def residuals_in_solves(self):
        """Residual evaluations made directly by a Newton solve."""
        return sum(1 for span in self.spans
                   if span[0] == "forward.mse_residual"
                   and span[3] is not None
                   and self.spans[span[3]][0] == "forward.solve_minimal_surface")

    def dump(self):
        return {"absent": self.absent, "spans": self.spans}


class _FactorProxy:
    """Stands in for a SuperLU factor so each triangular solve is a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer.call("splu.solve", self._lu.solve, (rhs,) + args,
                                 kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)
