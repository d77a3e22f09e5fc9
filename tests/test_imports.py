"""Guards over the package source.

Every package module uses every name it imports (`__init__.py` is exempt,
since its imports are the public re-exports), every module-level private
function and class is referenced somewhere outside its own definition, no
reduction over an axis bypasses the row helpers outside an allow-list,
complex Gaussians are drawn only by the Haar sampler and the Ginibre states,
random streams are made only by `qud.rng`, for the roles it names, relations
and sweeps reach the kernels through the kind maps, only `divergence` and
`uncertainty` import a kernel, `divergence` states each quantum divergence
once, and every source line fits in MAX_COLUMNS.
"""

import ast
from pathlib import Path

import pytest

from qud.divergence import DIVERGENCE_KINDS

SRC = Path(__file__).resolve().parent.parent / "src" / "qud"
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
# single-matrix row and column checks of make_overlap, the d^2-entry
# Frobenius norm of the Hilbert-Schmidt dephased term, and the count matrix of
# estimate_coherence. Every other one goes through qstate._row_sum/_row_max.
AXIS_REDUCTIONS_ALLOWED = {
    "divergence.py": ["_dephased.sum"],
    "qstate.py": ["_row_max.max", "_row_sum.sum", "make_overlap.sum", "make_overlap.sum"],
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


def test_random_streams_are_made_only_by_the_rng_roles():
    # stream(seed) draws a sampled instance and stream(seed, k) chunk k; every
    # other draw has a role key, and only qud.rng builds a generator
    found = {callee: [f"{path.name}:{owner}" for path in MODULES
                      for owner in callers(path.read_text(encoding="utf-8"), callee)]
             for callee in ("stream", "role_stream")}
    assert found == {
        "stream": ["cli.py:_load_instance", "experiments.py:estimate_volumes",
                   "qstate.py:_haar_chunks", "qstate.py:sample", "sweeps.py:haar_triples"],
        "role_stream": ["experiments.py:simulate_shots", "experiments.py:simulate_shots"],
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
    # qdiv is _dephased on a batch of one, so only the batched kernels call
    # into np.linalg and no second quantum kernel can come back
    tree = ast.parse((SRC / "divergence.py").read_text(encoding="utf-8"))
    owners = {getattr(stmt, "name", "<module>") for stmt in tree.body
              for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.linalg.")}
    assert owners == {"_dephased", "_sandwiched_trace"}


def test_source_lines_fit_in_max_columns():
    long = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []
