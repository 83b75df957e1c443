"""Per-layer metrics, computed from one traced run.

Every ``*_s`` metric is the *self* time of the named functions' spans: the
span's duration minus the part its child spans cover, so layer times do not
count each other twice.  Counts are calls of the wrapped functions.  A ratio
whose base is zero (the layer did not run on this workload) reads 0.
"""

IMPORT_MODULES = [
    "minsurf.cli", "minsurf.geometry", "minsurf.forward", "minsurf.linearize",
    "minsurf.dnmap", "minsurf.identity", "minsurf.inverse",
    "numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.spatial",
]

# layer -> [(metric, unit)], in the order the report prints them
PER_LAYER = {
    "geometry": [
        ("geometry.mesh_build_s", "s"),
        ("geometry.mesh_vertices", "count"),
        ("geometry.stiffness_assemblies", "count"),
        ("geometry.stiffness_s", "s"),
        ("geometry.stiffness_reuse_ratio", "ratio"),
        ("geometry.metric_quad_calls", "count"),
        ("geometry.metric_quad_s", "s"),
        ("geometry.boundary_geometry_s", "s"),
    ],
    "forward": [
        ("forward.nonlinear_solves", "count"),
        ("forward.newton_steps", "count"),
        ("forward.newton_steps_per_solve", "ratio"),
        ("forward.newton_self_s", "s"),
        ("forward.jacobian_s", "s"),
        ("forward.jacobian_ns_per_triangle", "ns"),
        ("forward.residual_evals", "count"),
        ("forward.residual_s", "s"),
        ("forward.linesearch_accept_ratio", "ratio"),
        ("forward.laplace_solves", "count"),
        ("forward.laplace_s", "s"),
        ("forward.distinct_solve_ratio", "ratio"),
    ],
    "splu": [
        ("splu.factorizations", "count"),
        ("splu.factor_s", "s"),
        ("splu.solves", "count"),
        ("splu.solve_s", "s"),
        ("splu.solves_per_factorization", "ratio"),
        ("splu.factor_nnz", "count"),
        ("splu.fill_ratio", "ratio"),
    ],
    "linearize": [
        ("linearize.third_pde_calls", "count"),
        ("linearize.third_pde_s", "s"),
    ],
    "dnmap": [
        ("dnmap.dn_nonlinear_calls", "count"),
        ("dnmap.area_evals", "count"),
        ("dnmap.area_s", "s"),
        ("dnmap.dn_third_derivative_s", "s"),
    ],
    "identity": [
        ("identity.q_functional_calls", "count"),
        ("identity.q_functional_s", "s"),
        ("identity.q_functional_ns_per_triangle", "ns"),
        ("identity.identity_check_s", "s"),
    ],
    "inverse": [
        ("inverse.extension_builds", "count"),
        ("inverse.extension_build_s", "s"),
        ("inverse.extends", "count"),
        ("inverse.extend_s", "s"),
        ("inverse.probe_s", "s"),
    ],
    "cli": [
        ("cli.csv_write_s", "s"),
        ("cli.run_self_s", "s"),
        ("cli.cpu_s", "s"),
    ] + [(f"cli.import_s.{m}", "s") for m in IMPORT_MODULES],
    "trace": [
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    ],
}

UNITS = {name: unit for metrics in PER_LAYER.values() for name, unit in metrics}
COUNTS = [name for name, unit in UNITS.items() if unit == "count"]


def _ratio(num, den):
    return num / den if den else 0.0


def from_tracer(tracer, cpu_s):
    """Every per-layer metric the traced process can measure itself.

    ``cli.import_s.*`` and ``trace.overhead_frac`` need the parent's view
    (the import-time log and the untraced runs) and are added there.
    """
    table = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "attrs": []}

    def get(name):
        return table.get(name, empty)

    def calls(*names):
        return sum(get(n)["calls"] for n in names)

    def self_s(*names):
        return sum(get(n)["self_s"] for n in names)

    def attr_sum(name, key):
        return sum(a[key] for a in get(name)["attrs"])

    stiffness = "geometry.assemble_weighted_stiffness"
    pairs = {tuple(a["pair"]) for a in get(stiffness)["attrs"]}
    solves = calls("forward.solve_minimal_surface")
    steps = calls("forward.mse_linearized_operator")
    trials = tracer.residuals_in_solves() - solves
    digests = {a["data"] for a in get("forward.solve_minimal_surface")["attrs"]}
    factorizations = calls("splu.splu")
    jacobian_s = self_s("forward.mse_linearized_operator")
    q_s = self_s("identity.q_functional")
    return {
        "geometry.mesh_build_s": self_s(
            "geometry.disc", "geometry.square", "geometry.annulus",
            "geometry.Mesh.__init__"),
        "geometry.mesh_vertices": attr_sum("geometry.Mesh.__init__",
                                           "vertices"),
        "geometry.stiffness_assemblies": calls(stiffness),
        "geometry.stiffness_s": self_s(stiffness),
        "geometry.stiffness_reuse_ratio": _ratio(len(pairs), calls(stiffness)),
        "geometry.metric_quad_calls": calls("geometry.metric_at_quadrature"),
        "geometry.metric_quad_s": self_s("geometry.metric_at_quadrature"),
        "geometry.boundary_geometry_s": self_s("geometry.boundary_geometry"),
        "forward.nonlinear_solves": solves,
        "forward.newton_steps": steps,
        "forward.newton_steps_per_solve": _ratio(steps, solves),
        "forward.newton_self_s": self_s("forward.solve_minimal_surface"),
        "forward.jacobian_s": jacobian_s,
        "forward.jacobian_ns_per_triangle": _ratio(
            1e9 * jacobian_s,
            attr_sum("forward.mse_linearized_operator", "triangles")),
        "forward.residual_evals": calls("forward.mse_residual"),
        "forward.residual_s": self_s("forward.mse_residual"),
        "forward.linesearch_accept_ratio": _ratio(steps, trials),
        "forward.laplace_solves": calls("forward.solve_laplace_beltrami"),
        "forward.laplace_s": self_s("forward.solve_laplace_beltrami"),
        "forward.distinct_solve_ratio": _ratio(len(digests), solves),
        "splu.factorizations": factorizations,
        "splu.factor_s": self_s("splu.splu"),
        "splu.solves": calls("splu.solve"),
        "splu.solve_s": self_s("splu.solve"),
        "splu.solves_per_factorization": _ratio(calls("splu.solve"),
                                                factorizations),
        "splu.factor_nnz": attr_sum("splu.splu", "factor_nnz"),
        "splu.fill_ratio": _ratio(attr_sum("splu.splu", "factor_nnz"),
                                  attr_sum("splu.splu", "matrix_nnz")),
        "linearize.third_pde_calls": calls("linearize.third_linearization_pde"),
        "linearize.third_pde_s": self_s("linearize.third_linearization_pde"),
        "dnmap.dn_nonlinear_calls": calls("dnmap.dn_nonlinear"),
        "dnmap.area_evals": calls("dnmap.area"),
        "dnmap.area_s": self_s("dnmap.area"),
        "dnmap.dn_third_derivative_s": self_s("dnmap.dn_third_derivative"),
        "identity.q_functional_calls": calls("identity.q_functional"),
        "identity.q_functional_s": q_s,
        "identity.q_functional_ns_per_triangle": _ratio(
            1e9 * q_s, attr_sum("identity.q_functional", "triangles")),
        "identity.identity_check_s": self_s("identity.integral_identity_check"),
        "inverse.extension_builds": calls("inverse.HarmonicExtension.__init__"),
        "inverse.extension_build_s": self_s(
            "inverse.HarmonicExtension.__init__"),
        "inverse.extends": calls("inverse.HarmonicExtension.extend"),
        "inverse.extend_s": self_s("inverse.HarmonicExtension.extend"),
        "inverse.probe_s": self_s("inverse.make_interior_probe"),
        "cli.csv_write_s": self_s("cli.write_csv"),
        "cli.run_self_s": self_s("cli.run"),
        "cli.cpu_s": cpu_s,
        "trace.spans": len(tracer.spans),
    }


def import_times(log_text):
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in log_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        if module in IMPORT_MODULES and module not in out:
            out[module] = int(fields[1]) / 1e6
    return {f"cli.import_s.{m}": out.get(m, 0.0) for m in IMPORT_MODULES}
