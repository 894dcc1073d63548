"""No module of the engine imports a name it never uses, imports
`dataclasses`, imports inside a function without a reason, caches outside the
one cache idiom, reduces a value only to unwrap its polynomial without a
reason, sets a morphism's `certified` flag to True outside `certify` and the
identity, reads a generator role outside the presentation builders, or
decides anything with an `assert` statement (Python drops those under -O),
and the Groebner and linear-algebra kernels leave field arithmetic to
`fields.py`.  `import kcx` loads neither the dataclass machinery nor the
definition-file layer.  Every function, method and class of the engine is
read somewhere else in the engine, exported, or kept for a stated reason.

The package's public names are pinned, so adding or removing one is a
deliberate edit here.

No linter ships with the project, so this walks each module's syntax tree with
the standard library.  `__init__.py` is skipped: its imports are re-exports.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kcx
from kcx.algebra import PresentedAlgebra, TensorAlgebra
from kcx.connections import AxiomCheck, Connection
from kcx.groebner import IdealBasis, ModuleBasis
from kcx.modules import TensorModule
from kcx.tangent import BundleContext, TangentMaps, TangentPresentation

SRC = Path(__file__).parent.parent / "src" / "kcx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# (file, imported module): why the import stays inside a function
LOCAL_IMPORTS: dict[tuple[str, str], str] = {}


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("import re\nfrom os import path, sep\nprint(sep)\n") == [
        "re (line 1)",
        "path (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport re\nre.compile('x')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_statements(source: str) -> list[int]:
    """Line of each `assert` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_detector_flags_an_assert_statement():
    source = 'def f(x):\n    """assert x"""\n    assert x, "x"\n    if not x:\n        raise AssertionError("x")\n'
    assert assert_statements(source) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def dataclass_imports(source: str) -> list[int]:
    """Line of each import of `dataclasses`, anywhere in the module.

    Records are `typing.NamedTuple`s or plain classes: `dataclasses` costs
    `import kcx` its own import, those of `inspect` and the modules it pulls
    in, and an `exec` per decorated class."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]


def test_detector_flags_a_dataclass_import():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass, field\nfrom typing import NamedTuple\n"
        "def f():\n    import dataclasses as dc\n    return dc\nimport dataclassesque\n"
    )
    assert dataclass_imports(source) == [1, 2, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclass_imports(path):
    assert dataclass_imports(path.read_text()) == []


# what `import kcx` must not load: the dataclass machinery and what it pulls
# in, the definition-file layer and the commands on top of it
NOT_AT_IMPORT = ("dataclasses", "inspect", "kcx.workspace", "kcx.cli", "kcx.gallery")

COLD_IMPORT = f"""
import sys
before = set(sys.modules)
import kcx
print(sorted(set({NOT_AT_IMPORT!r}) & (set(sys.modules) - before)))
parse = kcx.parse_workspace
print("kcx.workspace" in sys.modules)
ws = sys.modules["kcx.workspace"]
print([parse, kcx.Workspace, kcx.render_workspace] == [ws.parse_workspace, ws.Workspace, ws.render_workspace])
"""


def test_cold_import_loads_neither_dataclasses_nor_the_definition_file_layer():
    """In a fresh interpreter, `import kcx` loads none of `NOT_AT_IMPORT`
    (a module the interpreter had loaded before does not count), and reading
    `kcx.parse_workspace` loads `kcx.workspace`, whose own objects the three
    definition-file names of `kcx` then are."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT], capture_output=True, text=True, env=env, timeout=120, check=True
    ).stdout
    assert out.splitlines() == ["[]", "True", "True"]


def local_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of each package-relative import inside a function."""
    return sorted(
        {
            (node.module or "", node.lineno)
            for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        },
        key=lambda found: found[1],
    )


def test_detector_flags_a_local_import():
    source = "from .a import b\ndef f():\n    from .c import d\n    def g():\n        from . import e\n"
    assert local_imports(source) == [("c", 3), ("", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unexplained_function_local_imports(path):
    found = local_imports(path.read_text())
    assert [(m, line) for m, line in found if (path.name, m) not in LOCAL_IMPORTS] == []


def cache_violations(source: str) -> list[str]:
    """Reads of `._memo` outside `memoized`, and any `_lazy` attribute.

    Derived structures are cached by `algebra.memoized`, which alone reads an
    owner's `_memo`, or by `functools.cached_property`; assigning the empty
    `_memo` in a constructor is the only other use.
    """
    tree = ast.parse(source)
    allowed = {
        id(node)
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name == "memoized"
        for node in ast.walk(func)
    }
    found = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in allowed
        if node.attr == "_lazy" or (node.attr == "_memo" and isinstance(node.ctx, ast.Load))
    )
    return [f"{attr} (line {line})" for line, attr in found]


def test_detector_flags_a_second_cache_idiom():
    source = (
        "def memoized(build):\n    def cached(owner):\n        return owner._memo[build]\n\n"
        "class C:\n    def __init__(self):\n        self._memo = {}\n        self._lazy = {}\n\n"
        "def kahler(A):\n    if 'k' not in A._memo:\n        A._memo['k'] = 1\n    return A._memo['k']\n"
    )
    assert cache_violations(source) == [
        "_lazy (line 8)",
        "_memo (line 11)",
        "_memo (line 12)",
        "_memo (line 13)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_cache_idiom(path):
    assert cache_violations(path.read_text()) == []


# Modules whose term loops call `Field` methods and never branch on the field.
FIELD_BLIND = ["groebner.py", "linsolve.py"]


def characteristic_reads(source: str) -> list[str]:
    """Line of each read of a `.char` attribute."""
    return [
        f"char (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "char" and isinstance(node.ctx, ast.Load)
    ]


def test_detector_flags_a_characteristic_read():
    source = (
        "def addmul(field, a, b, c):\n    if field.char == 0:\n        return a + b * c\n"
        "    return (a + b * c) % field.char\n"
        "def make(field):\n    field.char = 3\n    return field.addmul(0, 1, 2)\n"
    )
    assert characteristic_reads(source) == ["char (line 2)", "char (line 4)"]


@pytest.mark.parametrize("name", FIELD_BLIND)
def test_kernels_never_read_the_characteristic(name):
    assert characteristic_reads((SRC / name).read_text()) == []


def copy_suffixes(source: str) -> list[str]:
    """Line of each string in code, docstrings aside, that spells a tensor
    copy name (`#0` or `#1`); `algebra.tensor_over_base` alone spells them,
    and every other module reads them from `TensorAlgebra.rename`."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        f"{node.value!r} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
        if "#0" in node.value or "#1" in node.value
    ]


def test_detector_flags_a_spelled_copy_name():
    source = (
        'def f(g):\n    """g#0 names the left copy."""\n    return f"{g}#0"\n'
        'def h(g):\n    return {g: g + "#1", "x#2": 0}  # x#1\n'
    )
    assert copy_suffixes(source) == ["'#0' (line 3)", "'#1' (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"], ids=lambda p: p.name)
def test_only_the_tensor_builder_spells_copy_names(path):
    assert copy_suffixes(path.read_text()) == []


# (file, function): why `element(...).poly` reduces there, although values
# are otherwise read raw with `polynomial(...)` and reduced once by the
# element that decides
EAGER_REDUCTIONS = {
    ("modules.py", "PresentedModule.__init__"): "relation rows are stored reduced, "
    "because rendering and presentation equality read them",
}


def eager_reductions(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `.poly` read off an `element(...)` call."""
    found = []

    def walk(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            call = child.value if isinstance(child, ast.Attribute) and child.attr == "poly" else None
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "element":
                found.append((scope, child.lineno))
            walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_detector_flags_reduce_then_unwrap():
    source = (
        "def f(A, c):\n    return A.element(c).poly\n"
        "class M:\n    def g(self, e):\n        return [self.base.element(x).poly for x in e]\n"
        "    def h(self, e):\n        p = self.base.polynomial(e)\n        return self.element(p), e.poly\n"
    )
    assert eager_reductions(source) == [("f", 2), ("M.g", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_values_are_read_raw(path):
    found = eager_reductions(path.read_text())
    assert [(f, line) for f, line in found if (path.name, f) not in EAGER_REDUCTIONS] == []


def test_every_allowed_reduction_is_still_there():
    found = {(path.name, f) for path in MODULES for f, _ in eager_reductions(path.read_text())}
    assert set(EAGER_REDUCTIONS) <= found


# functions that may set `certified` to True: `certify` proves it, and the
# identity sends every relation to itself
CERTIFIERS = ("AlgebraMorphism.certify", "identity_morphism")


def certified_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each write to a `certified` attribute
    that is not False, True inside one of `CERTIFIERS`, or a copy of parent
    maps' flags (`f.certified`, or such reads joined by `and`)."""
    found = []

    def copies(value) -> bool:
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.And):
            return all(map(copies, value.values))
        return isinstance(value, ast.Attribute) and value.attr == "certified"

    def allowed(value, scope: str) -> bool:
        if isinstance(value, ast.Constant) and value.value is False:
            return True
        if isinstance(value, ast.Constant) and value.value is True:
            return scope in CERTIFIERS
        return copies(value)

    def walk(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                writes = any(
                    isinstance(t, ast.Attribute) and t.attr == "certified" for target in targets for t in ast.walk(target)
                )
                simple = isinstance(child, ast.Assign) and all(isinstance(t, ast.Attribute) for t in targets)
                if writes and not (simple and allowed(child.value, scope)):
                    found.append((scope, child.lineno))
            walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_detector_flags_a_hand_set_certified_flag():
    source = (
        "class AlgebraMorphism:\n    def __init__(self):\n        self.certified = False\n"
        "    def certify(self):\n        self.certified = True\n\n"
        "def identity_morphism(A):\n    ident.certified = True\n\n"
        "def compose(f, g):\n    h.certified = f.certified and g.certified\n    k.certified = f.certified\n\n"
        "class Connection:\n    def H(self):\n        H.certified = True\n"
        "        H.certified = ok\n        H.certified = f.certified or True\n"
        "        H.certified, K.certified = True, True\n        H.certified &= f.certified\n"
    )
    assert certified_writes(source) == [("Connection.H", line) for line in range(16, 21)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_certify_and_the_identity_set_the_certified_flag(path):
    assert certified_writes(path.read_text()) == []


# (file, function) that may read a generator role's `kind` or `origin`: the
# builders of presentations and the namer of differentials.  Structure maps
# read T's `dmap` instead.
ROLE_READERS = {
    ("algebra.py", "tensor_over_base"),
    ("tangent.py", "_next_role"),
    ("tangent.py", "TangentPresentation.__init__"),
}


def role_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each read of a `kind` or `origin` attribute."""
    found = []

    def walk(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("kind", "origin") and isinstance(child.ctx, ast.Load):
                found.append((scope, child.lineno))
            walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_detector_flags_a_role_read():
    source = (
        "def _next_role(B, g):\n    return B.roles[g].kind\n\n"
        "class TangentMaps:\n    def lift(self):\n"
        "        return {g: r.origin for g, r in self.TTA.roles.items() if r.kind == 'dpd'}\n"
        "    def flip(self):\n        role.kind = 'd'\n"
    )
    assert role_reads(source) == [("_next_role", 2), ("TangentMaps.lift", 6), ("TangentMaps.lift", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_presentation_builders_read_generator_roles(path):
    assert [(f, line) for f, line in role_reads(path.read_text()) if (path.name, f) not in ROLE_READERS] == []


def test_every_role_reader_still_reads_roles():
    found = {(path.name, f) for path in MODULES for f, _ in role_reads(path.read_text())}
    assert ROLE_READERS <= found


# The public API of `kcx` as `from kcx import *` sees it: no submodule.
PUBLIC_API = [
    "AffineSolutionSpace", "AlgebraElement", "AlgebraMorphism", "AxiomReport", "BaseMismatch",
    "BracketingConditionFailure", "Connection", "Field", "GF", "IdealBasis", "KcxError",
    "LinearEquation", "ModuleBasis", "ModuleElement", "ModuleMorphism",
    "ModuleNotKahler", "ParseError", "Polynomial", "PresentedAlgebra", "PresentedModule", "QQ",
    "SectionRetractionFailure", "SolverTooLarge", "WellDefinednessFailure", "Workspace",
    "affine_linear_solve", "apply_connection", "bracketing", "bundle_combine", "bundle_context",
    "check_curvature_correspondence", "check_torsion_correspondence", "compose_morphisms",
    "connection_equal", "dual_bundle", "dual_connection_solve", "dual_numbers_structure",
    "free_canonical_connection", "free_module", "from_horizontal", "glued_connection_check",
    "identity_morphism", "kahler_module", "localize", "make_algebra", "make_connection",
    "make_module", "make_morphism", "module_curvature", "module_torsion", "parse_workspace",
    "poly_normalize", "pullback_connection", "render_workspace", "retract_connection",
    "solve_connection_space", "tangent_algebra", "tangent_apply_functor", "tangent_curvature",
    "tangent_structure_maps", "tangent_torsion", "tensor_modules", "tensor_over_base",
    "to_horizontal", "to_vertical", "universal_derivation", "verify_connection_axioms",
    "vertical_from_horizontal", "wedge_square",
]


def test_public_api_is_pinned():
    assert sorted(kcx.__all__) == PUBLIC_API


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from kcx import *", namespace)
    bound = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert sorted(bound) == PUBLIC_API
    assert [name for name, value in bound.items() if isinstance(value, types.ModuleType)] == []


# (module, name): a second entry point that was retired for the object behind it
RETIRED = [
    ("modules", "element_is_zero"),  # ModuleElement.is_zero
    ("groebner", "groebner_basis"),  # IdealBasis
    ("groebner", "module_groebner_basis"),  # ModuleBasis
    ("groebner", "buchberger"),  # IdealBasis(...).basis
    ("tangent", "sym_algebra_bundle"),  # bundle_context
    ("tangent", "u_map"),  # bundle_context(M).U
    ("tangent", "affine_flip"),  # BundleContext.affine_flip
    ("tangent", "affine_swap"),  # BundleContext.affine_swap
    ("tangent", "zero_map"),  # tangent_structure_maps(B).zero
    ("tangent", "vertical_lift"),  # tangent_structure_maps(B).lift
    ("tangent", "generic_flip"),  # tangent_structure_maps(B).flip
    ("groebner", "SparseVector"),  # groebner.Row
    ("solve", "_scaled"),  # poly._mul_terms on each component of a Row
    ("algebra", "_gluing"),  # tensor_over_base presents the shared base on one copy
    ("algebra", "_shared_base"),  # tensor_over_base builds only the one-copy pushout
    ("cli", "Check"),  # connections.AxiomCheck
    ("cli", "_axiom_check"),  # the residue is rendered where the check fails
    ("solve", "ConnectionSpace"),  # the AffineSolutionSpace itself, keyed (g, idx, exp)
    # read by tests alone, rebuilt in tests/helpers.py from the engine's builders
    ("tangent", "_fibrewise_sum"),  # helpers.fibrewise_sum
    ("curvature", "torsionfree_horizontal_criterion"),  # helpers.torsionfree_horizontal_criterion
    ("solve", "contains_connection"),  # helpers.contains_connection
]

# BundleContext attributes retired for the tangent structures it reads:
# p_A is A_maps.p, T2A is A_maps.TTA, and the others are S_maps' p, zero,
# lift, flip and TTA
RETIRED_BUNDLE_ATTRIBUTES = ("p_A", "p_S", "zero_S", "lift_S", "flip_S", "T2S", "T2A")


@pytest.mark.parametrize("module,name", RETIRED, ids=[f"{m}.{n}" for m, n in RETIRED])
def test_retired_entry_points_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"kcx.{module}"), name)
    assert not hasattr(kcx, name)


def test_the_square_zero_verdict_builds_no_linear_system():
    """`dual_connection_solve` decides by one normal form per generator, so
    `dualnum` imports nothing from the solvers or the linear algebra beyond
    the space it returns."""
    tree = ast.parse((SRC / "dualnum.py").read_text())
    imported = {(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not {module for module, _ in imported} & {"solve", "groebner"}
    assert {name for module, name in imported if module == "linsolve"} == {"AffineSolutionSpace"}


def test_retired_methods_are_gone():
    assert not {"_affine_flip", "_affine_swap"} & set(vars(BundleContext))
    ctx = kcx.bundle_context(kcx.kahler_module(kcx.make_algebra(kcx.QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    assert [name for name in RETIRED_BUNDLE_ATTRIBUTES if hasattr(ctx, name)] == []
    # H is certified by `AlgebraMorphism.certify`, with its extra raw-zero test
    assert not {"render_table", "_horizontal_certifies"} & set(vars(Connection))
    # the one-copy tensor needs no gluing: no renaming, no glued relations
    assert not {"glue", "_glued_relations"} & {*vars(PresentedAlgebra), *vars(TensorAlgebra)}
    assert not hasattr(ctx.TAS, "glue") and not hasattr(ctx.A, "glue")
    # one check record, its residue already rendered: no sides kept apart
    assert list(AxiomCheck._fields) == ["axiom_id", "status", "witness", "residue"]
    # `from_horizontal` reads the (1,1) part of each raw image: no membership refusal
    assert not hasattr(kcx.errors, "MembershipFailure")
    # structure no axiom check reads, and how tests write values: tests/helpers.py
    # and tests/oracles.py rebuild them
    assert not {"minus", "plus", "T2", "tau"} & set(vars(TangentMaps))
    assert not {"sigma", "affine_swap"} & set(vars(BundleContext))
    assert not hasattr(TangentPresentation, "d")
    assert not hasattr(TensorModule, "pair") and not hasattr(TensorAlgebra, "pair")
    # certificate degrees live in a basis's index alone
    assert not {"cert_excess", "cert_degrees"} & {*IdealBasis.__slots__, *ModuleBasis.__slots__}


# (file, qualified name): why a definition that nothing else in the engine
# references stays
UNREFERENCED = {
    ("groebner.py", "ModuleBasis.normal_form_with_bound"): "the benchmark's span target; it goes "
    "when the benchmark stops tracing it (ROADMAP item 2)",
}


# the node types that read a name, and the field holding it
READ_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def unreferenced(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, qualified name) of each function, method and class, dunders
    aside, whose name no line outside its own definition reads, imports or
    reaches as an attribute in any of `sources` (file name -> source).  A
    method, a def directly in a class body, counts only as an attribute: a
    local variable of the same name is not a use of it."""
    defined, reads = [], []
    for name, source in sources.items():
        tree = ast.parse(source)

        def walk(node, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{scope}.{child.name}" if scope else child.name
                    method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
                    defined.append((name, qualname, child.name, method, child.lineno, child.end_lineno))
                    walk(child, qualname)
                else:
                    walk(child, scope)

        walk(tree, "")
        for node in ast.walk(tree):
            if field := READ_FIELDS.get(type(node)):
                reads.append((name, getattr(node, field), isinstance(node, ast.Attribute), node.lineno))
    return [
        (name, qualname)
        for name, qualname, word, method, first, last in defined
        if not (word.startswith("__") and word.endswith("__"))
        and not any(
            w == word and (attr or not method) and not (f == name and first <= line <= last)
            for f, w, attr, line in reads
        )
    ]


def test_detector_flags_an_unreferenced_definition():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef alone():\n    return alone()\n\n"
        "class C:\n    def __len__(self):\n        return 0\n    def m(self):\n        return used()\n",
        "b.py": "from .a import C\nC().m\n",
    }
    assert unreferenced(sources) == [("a.py", "alone")]


def test_detector_flags_a_method_shadowed_by_a_local():
    sources = {
        "a.py": "class C:\n    def pair(self):\n        return 1\n    def d(self):\n        return 2\n\n"
        "def f(pairs):\n    for pair in pairs:\n        d = pair\n    return d\n",
        "b.py": "from .a import C, f\nf([C().d])\n",
    }
    assert unreferenced(sources) == [("a.py", "C.pair")]


def test_every_definition_is_referenced_exported_or_allowed():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    found = [key for key in unreferenced(sources) if key[1] not in kcx.__all__]
    assert [key for key in found if key not in UNREFERENCED] == []
    assert set(UNREFERENCED) <= set(found)
