"""Guards over the package source and its public surface.

Every package module uses every name it imports (`__init__.py` is exempt,
since its imports are the public re-exports), every module-level private
function and class is referenced somewhere outside its own definition, no
reduction over an axis bypasses the row helpers outside an allow-list,
complex Gaussians are drawn only by the Haar sampler and the Ginibre states,
random streams are made only by `qud.rng`, for the roles it names, relations
and sweeps reach the kernels through the kind maps, only `divergence` and
`uncertainty` import a kernel, `divergence` states each quantum divergence
once, only the A-frame reduction builds a TripleBatch, `qud.errors` defines
three classes and only two of them are raised outside the CLI, and every
source line fits in MAX_COLUMNS. `qud.__all__` is pinned, and every qud name
the benchmark's probes read resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qud
from qud.divergence import DIVERGENCE_KINDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qud"
BENCH_LAYERS = ROOT / "bench" / "layers.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MAX_COLUMNS = 95  # the longest source line, so a line count cannot fall by packing


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c as d\nb(np.e)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """Module-level private functions and classes that no statement other than
    their own definition names (as a name, an attribute or an import).

    Matching is by name across all the given sources.
    """
    defined, referenced = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.add(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(defined - referenced)


def test_guard_finds_unreferenced_private_defs():
    a = "def _used():\n    pass\n\ndef _lone(n):\n    return _lone(n - 1)\n\nclass _Gone:\n    pass\n"
    b = "from a import _used\n\ndef public():\n    return _used()\n"
    assert unreferenced_private_defs([a, b]) == ["_Gone", "_lone"]


def test_every_private_def_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_defs(sources) == []


# Reductions over an axis that stay numpy's own: the helpers themselves, the
# d^2-entry Frobenius norm of the Hilbert-Schmidt dephased term, and the count
# matrix of estimate_coherence. Every other one goes through
# qstate._row_sum/_row_max.
AXIS_REDUCTIONS_ALLOWED = {
    "divergence.py": ["_dephased.sum"],
    "qstate.py": ["_row_max.max", "_row_sum.sum"],
    "experiments.py": ["estimate_coherence.sum", "estimate_coherence.sum"],
}


def axis_reductions(source: str) -> list[str]:
    """`owner.method` for every .sum/.max/.min call given an axis, by keyword
    or position, where owner is the module-level function or class it is in."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("sum", "max", "min")):
                continue
            on_np = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            if (any(k.arg == "axis" for k in node.keywords)
                    or len(node.args) > (1 if on_np else 0)):
                found.append(f"{getattr(stmt, 'name', '<module>')}.{node.func.attr}")
    return sorted(found)


def test_guard_finds_axis_reductions():
    source = (
        "import numpy as np\n\n"
        "def f(x):\n"
        "    return x.sum(axis=-1) + x.max(1) + np.min(x, -1) + x.sum() + np.max(x)\n\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        return x.min(axis=(1, 2))\n"
    )
    assert axis_reductions(source) == ["K.min", "f.max", "f.min", "f.sum"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_axis_reductions_go_through_the_row_helpers(path):
    found = axis_reductions(path.read_text(encoding="utf-8"))
    assert found == AXIS_REDUCTIONS_ALLOWED.get(path.name, [])


def callers(source: str, callee: str) -> list[str]:
    """The module-level function or class around each call of `callee`."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == callee):
                found.append(getattr(stmt, "name", "<module>"))
    return sorted(found)


def test_guard_finds_callers():
    source = "def f():\n    return g(g(1))\n\ndef h():\n    return f()\n\nx = g(2)\n"
    assert callers(source, "g") == ["<module>", "f", "f"]


def test_complex_normals_feed_only_the_haar_sampler_and_ginibre_states():
    # a Haar ket is the first column of _haar_unitaries, not a second sampler
    found = [f"{path.name}:{owner}" for path in MODULES
             for owner in callers(path.read_text(encoding="utf-8"), "_complex_normal")]
    assert found == ["qstate.py:_ginibre_states", "qstate.py:_haar_unitaries"]


def test_every_chunked_run_goes_through_the_one_chunk_runner():
    # volume, search and dpi are per-chunk reductions that rng._map_chunks
    # runs in chunk order; no command walks its chunks in a loop of its own
    found = [f"{path.name}:{owner}" for path in MODULES
             for owner in callers(path.read_text(encoding="utf-8"), "_map_chunks")]
    assert found == ["experiments.py:estimate_volumes", "relations.py:search_counterexample",
                     "sweeps.py:dpi_scan"]


def test_random_streams_are_made_only_by_the_rng_roles():
    # stream(seed) draws a sampled instance and stream(seed, k) chunk k; every
    # other draw has a role key, and only qud.rng builds a generator
    found = {callee: [f"{path.name}:{owner}" for path in MODULES
                      for owner in callers(path.read_text(encoding="utf-8"), callee)]
             for callee in ("stream", "role_stream")}
    assert found == {
        "stream": ["cli.py:_load_instance", "experiments.py:estimate_volumes",
                   "qstate.py:_scan_chunk", "sweeps.py:haar_triples"],
        "role_stream": ["experiments.py:simulate_shots"],
    }
    for path in MODULES:
        if path.name != "rng.py":
            text = path.read_text(encoding="utf-8")
            assert "default_rng" not in text and "SeedSequence" not in text, path.name


def test_relations_reach_the_kernels_through_the_kind_maps():
    # every term of every relation, at the orders its catalog row gives, is
    # read through uncertainty._measure or divergence._classical, so
    # relations names no kernel
    tree = ast.parse((SRC / "relations.py").read_text(encoding="utf-8"))
    kernels = ("divergence", "uncertainty")
    found = {node.module: sorted(a.name for a in node.names) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in kernels}
    assert found == {"divergence": ["_check_order", "_classical", "_dephased"],
                     "uncertainty": ["_measure"]}


# What a module outside the kernel layer may import from it: names, order
# checks and the kind maps, never a kernel
KERNEL_LAYER_EXPORTS = {
    "divergence": {"DIVERGENCE_KINDS", "DivergenceSpec", "_check_order", "_classical",
                   "_dephased"},
    "uncertainty": {"_measure"},
}


def kernel_imports(source: str) -> list[str]:
    """`module.name` for every name imported from a kernel-layer module that
    is not in KERNEL_LAYER_EXPORTS; importing the module itself counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in KERNEL_LAYER_EXPORTS:
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in KERNEL_LAYER_EXPORTS[node.module]]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names
                      if a.name.rpartition(".")[2] in KERNEL_LAYER_EXPORTS]
    return sorted(found)


def test_guard_finds_kernel_imports():
    source = ("from .divergence import _classical, kl_divergence\n"
              "from .uncertainty import _measure, shannon_entropy\n"
              "from . import divergence\nimport qud.uncertainty\n")
    assert kernel_imports(source) == ["divergence", "divergence.kl_divergence",
                                      "qud.uncertainty", "uncertainty.shannon_entropy"]


def test_only_the_kernel_layer_imports_a_kernel():
    # only divergence and uncertainty name a kernel; every other module reads
    # one through a kind map, so the terms of a relation or a DPI chain are
    # stated once, in its catalog row
    found = {path.name: kernel_imports(path.read_text(encoding="utf-8")) for path in MODULES
             if path.stem not in KERNEL_LAYER_EXPORTS}
    assert found == {path: [] for path in found}


def test_sweeps_reads_both_dpi_sides_through_the_kind_maps():
    # the quantum and classical sides of every data processing inequality are
    # divergence._dephased and divergence._classical, so sweeps holds no
    # divergence formula and tells no divergence kind from another
    tree = ast.parse((SRC / "sweeps.py").read_text(encoding="utf-8"))
    found = {node.module: sorted(a.name for a in node.names) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in ("divergence", "qstate")}
    assert found["divergence"] == ["DivergenceSpec", "_classical", "_dephased"]
    assert not {"_pseudo_power", "_row_sum"} & set(found["qstate"])
    compared = {side.value for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for side in (node.left, *node.comparators) if isinstance(side, ast.Constant)}
    assert not compared & set(DIVERGENCE_KINDS)


def test_divergence_states_each_quantum_formula_once():
    # the quantum side is D(rho || rho_A), read only by _dephased on A-frame
    # batches, so only the batched kernels call into np.linalg and no second
    # quantum kernel, of a general pair of states, can come back
    tree = ast.parse((SRC / "divergence.py").read_text(encoding="utf-8"))
    owners = {getattr(stmt, "name", "<module>") for stmt in tree.body
              for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.linalg.")}
    assert owners == {"_dephased", "_sandwiched_trace"}


def constructors(source: str, cls: str) -> list[str]:
    """The module-level function or class around each call of `cls`, by
    name or as an attribute (`module.cls(...)`)."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and cls in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None)):
                found.append(getattr(stmt, "name", "<module>"))
    return sorted(found)


def test_guard_finds_constructors():
    source = ("def f():\n    return K(1), m.K(2), m.J(3)\n\n"
              "class C:\n    def g(self):\n        return K()\n")
    assert constructors(source, "K") == ["C", "f", "f"]


def test_only_the_a_frame_reduction_builds_a_triple_batch():
    # _triples makes p the diagonal of rho, so every batch _dephased reads
    # has rho_A = diag(p); no second constructor can feed it a general pair
    found = [f"{path.name}:{owner}" for path in MODULES
             for owner in constructors(path.read_text(encoding="utf-8"), "TripleBatch")]
    assert found == ["qstate.py:_triples"]


def raised(source: str) -> list[str]:
    """What each raise statement raises: the exception it calls or names,
    or `raise` for a bare re-raise."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc
            if exc is None:
                found.append("raise")
            else:
                found.append(ast.unparse(exc.func if isinstance(exc, ast.Call) else exc))
    return sorted(found)


def test_guard_finds_raises():
    source = ("def f(x):\n    try:\n        x()\n    except E:\n        raise\n"
              "    raise E('bad') from None\n\ndef g():\n    raise C\n")
    assert raised(source) == ["C", "E", "raise"]


def test_errors_defines_one_error_per_kind_of_bad_input():
    # a value that breaks an invariant and a bad input file; the base class
    # is what the CLI catches. Any statement past the docstring other than
    # these three classes, an alias of a retired name say, shows unparsed.
    body = ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
    assert [getattr(stmt, "name", None) or ast.unparse(stmt) for stmt in body[1:]] == [
        "QudError", "ValidationError", "SchemaError"]


def test_the_package_raises_only_validation_and_schema_errors():
    # outside the CLI's own argument and output checks, every check raises
    # ValidationError or SchemaError, each with a message naming the broken
    # invariant, or re-raises what it caught
    allowed = {"ValidationError", "SchemaError", "raise"}
    found = [f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "cli.py"
             for name in raised(path.read_text(encoding="utf-8")) if name not in allowed]
    assert found == []


def test_source_lines_fit_in_max_columns():
    long = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []


# What the instrument, its README quick start and its benchmark call. A name
# comes back into the public surface only by an edit here.
PUBLIC_SURFACE = (
    "CoherenceBounds", "Counterexample", "DIVERGENCE_KINDS", "DensityMatrix",
    "DivergenceSpec", "OrthonormalBasis", "QudError", "RELATION_IDS", "RelationId",
    "RelationVerdict", "ShotCounts", "VolumeEstimate", "coherence_bounds",
    "estimate_coherence", "estimate_volume", "estimate_volumes", "eval_with_dual",
    "fourier_basis", "make_basis", "make_density", "region_grid",
    "search_counterexample", "simulate_shots", "standard_basis", "table2_relations",
)


def test_the_public_surface_is_pinned():
    assert tuple(qud.__all__) == PUBLIC_SURFACE
    assert len(set(qud.__all__)) == len(qud.__all__)
    for name in qud.__all__:
        assert hasattr(qud, name), name


def qud_reads(source: str) -> list[str]:
    """`module.name` for every qud name a script reads: `mod.name` on a module
    bound by `from qud import mod`, each `from qud.mod import name`, and
    `getattr(mod, var)` inside `for var, ... in TABLE`, for the first entry of
    each row of the module-level literal TABLE."""
    tree = ast.parse(source)
    tables = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            try:
                tables[stmt.targets[0].id] = ast.literal_eval(stmt.value)
            except ValueError:
                pass
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qud":
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qud."):
            found.update(f"{node.module[4:]}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{node.value.id}.{node.attr}")
        if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
                and node.iter.id in tables and isinstance(node.target, ast.Tuple)):
            continue
        var = node.target.elts[0].id
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and ast.unparse(call.func) == "getattr"
                    and ast.unparse(call.args[0]) in modules
                    and ast.unparse(call.args[1]) == var):
                found.update(f"{call.args[0].id}.{row[0]}" for row in tables[node.iter.id])
    return sorted(found)


def test_guard_finds_qud_reads():
    source = ("from qud import relations, sweeps\nfrom qud.relations import RelationId\n"
              "ROWS = (('relation_sides', ()), ('gone', (0.5,)))\n"
              "def f(other):\n"
              "    for name, extra in ROWS:\n"
              "        getattr(relations, name)(*extra)\n"
              "        getattr(other, name)\n"
              "    return sweeps.haar_triples, other.x\n")
    assert qud_reads(source) == ["relations.RelationId", "relations.gone",
                                 "relations.relation_sides", "sweeps.haar_triples"]


def resolves(read: str) -> bool:
    module, _, name = read.partition(".")
    return hasattr(importlib.import_module(f"qud.{module}"), name)


def test_every_qud_name_the_benchmark_reads_resolves():
    # the benchmark's probes call the program by name; a name deleted or
    # renamed here would otherwise first fail in bench/smoke.py
    reads = qud_reads(BENCH_LAYERS.read_text(encoding="utf-8"))
    assert {"uncertainty.shannon_entropy", "divergence.power_overlap",
            "sweeps.relation_margins", "relations.RelationId"} <= set(reads)
    assert [read for read in reads if not resolves(read)] == []
