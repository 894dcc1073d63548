"""Seeded mutation test of the command line on the example files.

Each mutant of an `examples_kcx/` file swaps one or two identifiers for another
identifier of the file or a fresh name, or inserts or deletes one token.  Every
command that reads a file runs on it: the exit code is 0, 1 or 2, an exit 2
prints an `error: ` line, and no exception escapes.  On a file with a glue
block, an exit-2 `glue` error names its line and column.  A mutant that parses
renders to text that parses back to the same rendering.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcx.cli import run
from kcx.errors import KcxError
from kcx.workspace import parse_workspace, render_workspace

FILES = Path(__file__).parent.parent / "examples_kcx"
TOKEN = re.compile(r"#[^\n]*|[A-Za-z_]\w*|\d+|\S")
COMMANDS = [
    ["check"],
    ["curvature"],
    ["torsion"],
    ["convert"],
    ["solve", "--module", "Omega", "--degree", "1"],
    ["glue", "--degree", "1"],
]
MUTANTS_PER_FILE = 40
LOCATION = re.compile(r"\(line \d+, column \d+\)$")


def keeps_the_contract(command: list[str], path: Path, text: str) -> None:
    try:
        code, out = run([command[0], str(path), *command[1:]])
    except Exception as exc:  # noqa: BLE001 - any escape is the failure
        pytest.fail(f"{command[0]} raised {exc!r} on:\n{text}")
    assert code in (0, 1, 2), (command, text)
    assert code != 2 or out.startswith("error: "), (command, out, text)
    if code == 2 and command[0] == "glue" and any(m.group() == "glue" for m in TOKEN.finditer(text)):
        assert LOCATION.search(out), (out, text)


def mutate(text: str, rng: random.Random) -> str:
    tokens = [m for m in TOKEN.finditer(text) if not m.group().startswith("#")]
    idents = [m for m in tokens if m.group().isidentifier()]
    kind = rng.choice(["swap", "insert", "delete"])
    if kind == "swap":
        names = sorted({m.group() for m in idents}) + ["zz"]
        edits = [(m.start(), m.end(), rng.choice(names)) for m in rng.sample(idents, rng.randint(1, 2))]
    elif kind == "insert":
        at = rng.choice(tokens).start()
        edits = [(at, at, rng.choice(tokens).group() + " ")]
    else:
        m = rng.choice(tokens)
        edits = [(m.start(), m.end(), "")]
    for start, end, new in sorted(edits, reverse=True):
        text = text[:start] + new + text[end:]
    return text


def test_mutated_examples_keep_the_cli_contract(tmp_path):
    rng = random.Random(15)
    for source in sorted(FILES.glob("*.kcx")):
        original = source.read_text()
        for i in range(MUTANTS_PER_FILE):
            text = mutate(original, rng)
            path = tmp_path / f"{source.stem}{i}.kcx"
            path.write_text(text)
            for command in COMMANDS:
                keeps_the_contract(command, path, text)
            try:
                rendered = render_workspace(parse_workspace(text))
            except KcxError:
                continue
            assert render_workspace(parse_workspace(rendered)) == rendered, text


# ---------------------------------------------------------------------------
# generated files
# ---------------------------------------------------------------------------

# Names include ones the engine makes itself: d_x and dp_y are reserved for
# differentials, e1 is the first generator of a free module, and a module
# generator may repeat a variable of its algebra.  Plain names are listed
# twice, so most files get past the parser.
VARIABLE_POOL = ["x", "y", "x", "y", "t", "d_x", "dp_y", "e1"]
GENERATOR_POOL = ["u", "v", "u", "v", "x", "d_u", "e1"]
CHART2_VARIABLES = ["s", "r"]  # s is the variable chart 2 is localized at
GENERATED_COMMANDS = [
    ["check"],
    ["curvature"],
    ["torsion"],
    ["convert"],
    ["solve", "--module", "M", "--degree", "1"],
    ["glue", "--degree", "1"],
]


@st.composite
def polynomials(draw, names: list[str], max_terms: int = 3) -> str:
    """Up to `max_terms` terms with small coefficients and exponents at most 2."""
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        powers = [f"{n}^{e}" for n in names if (e := draw(st.integers(0, 2)))]
        terms.append("*".join([f"({draw(st.integers(-2, 2))})", *powers]))
    return " + ".join(terms) or "0"


@st.composite
def morphism_images(draw, names: list[str]) -> str:
    """A morphism image: a generator, its negative, zero or a product of two."""
    kind = draw(st.sampled_from(["gen", "signed", "zero", "product"]))
    if kind == "zero":
        return "0"
    if kind == "product":
        return "*".join(draw(st.lists(st.sampled_from(names), min_size=2, max_size=2)))
    return ("-" if kind == "signed" else "") + draw(st.sampled_from(names))


@st.composite
def glue_blocks(draw, variables: list[str], relations: str, char: int) -> list[str]:
    """A second chart B, both charts localized at a variable, a transition and
    an inverse between the localizations, and a glue block.

    The transition sends the localized variable u to s_inv, u_inv to s and
    the other variable of A, if any, to r.  The pair is often wrong: an inverse that is well defined but not
    inverse (s -> u), or a transition that is ill-defined (u_inv -> s_inv).
    A relation of A is kept in its localization but not carried to B, so the
    transition of a chart with a relation is ill-defined too."""
    u = draw(st.sampled_from(variables))
    rest = [v for v in variables if v != u]
    chart2 = CHART2_VARIABLES[: len(variables)]
    kind = draw(st.sampled_from(["inverse", "not-inverse", "ill-defined"]))
    forward = {u: "s_inv", f"{u}_inv": "s_inv" if kind == "ill-defined" else "s", **dict(zip(rest, chart2[1:]))}
    backward = {"s": u, "s_inv": f"{u}_inv"} if kind == "not-inverse" else {"s": f"{u}_inv", "s_inv": u}
    backward.update(zip(chart2[1:], rest))
    return [
        f"algebra B {{ char: {char}; vars: {', '.join(chart2)}; }}",
        f"algebra L1 {{ char: {char}; vars: {', '.join(variables)}, {u}_inv;{relations} rel: {u}*{u}_inv - 1; }}",
        f"algebra L2 {{ char: {char}; vars: {', '.join(chart2)}, s_inv; rel: s*s_inv - 1; }}",
        f"morphism t : L1 -> L2 {{ {' '.join(f'{v} -> {w};' for v, w in forward.items())} }}",
        f"morphism tinv : L2 -> L1 {{ {' '.join(f'{v} -> {w};' for v, w in backward.items())} }}",
        f"glue {{ chart1: A at {u}; chart2: B at s; transition: t; inverse: tinv; }}",
    ]


@st.composite
def definition_files(draw) -> str:
    """One algebra A in at most 2 variables, one Kahler, free or presented
    module over it, maybe a connection on the module, and maybe either a
    second algebra with a morphism into it or a second chart glued to A.  The
    second algebra is often a copy of the first, so relation images that match
    a codomain relation are common."""
    char = draw(st.sampled_from([0, 2, 3]))
    variables = draw(st.lists(st.sampled_from(VARIABLE_POOL), min_size=1, max_size=2, unique=True))
    relations = "".join(f" rel: {r};" for r in draw(st.lists(polynomials(variables), max_size=1)))
    kind = draw(st.sampled_from(["kahler", "free", "presented"]))
    if kind == "kahler":
        body, gens = "kahler;", [f"d({v})" for v in variables]
    elif kind == "free":
        rank = draw(st.integers(0, 2))
        body, gens = f"free: {rank};", [f"e{i + 1}" for i in range(rank)]
    else:
        gens = draw(st.lists(st.sampled_from(GENERATOR_POOL), min_size=1, max_size=2, unique=True))
        rows = [
            " + ".join(f"({draw(polynomials(variables, 2))})*{g}" for g in gens)
            for _ in range(draw(st.integers(0, 1)))
        ]
        body = f"gens: {', '.join(gens)};" + "".join(f" rel: {r};" for r in rows)
    extra = draw(st.sampled_from(["none", "morphism", "glue"]))
    if extra == "glue" and draw(st.booleans()):
        relations = ""  # so that some transitions are well defined
    lines = [f"algebra A {{ char: {char}; vars: {', '.join(variables)};{relations} }}"]
    if extra == "glue":
        lines.extend(draw(glue_blocks(variables, relations, char)))
    elif extra == "morphism":
        if draw(st.booleans()):
            targets, target_relations = variables, relations
        else:
            targets = draw(st.lists(st.sampled_from(VARIABLE_POOL), min_size=1, max_size=2, unique=True))
            target_relations = "".join(f" rel: {r};" for r in draw(st.lists(polynomials(targets), max_size=1)))
        lines.append(f"algebra B {{ char: {char}; vars: {', '.join(targets)};{target_relations} }}")
        entries = " ".join(f"{v} -> {draw(morphism_images(targets))};" for v in variables)
        lines.append(f"morphism f : A -> B {{ {entries} }}")
    lines.append(f"module M over A {{ {body} }}")
    if gens and draw(st.booleans()):
        images = []
        for g in gens:
            term = st.tuples(polynomials(variables, 1), st.sampled_from(variables), st.sampled_from(gens))
            parts = [f"({c}) * d({v}) @ {h}" for c, v, h in draw(st.lists(term, max_size=2))]
            images.append(f"{g} -> {' + '.join(parts) or '0'};")
        lines.append(f"connection c on M {{ {' '.join(images)} }}")
    if extra == "glue" and draw(st.booleans()):
        # zero connections on the differentials of both charts: glue compares them
        for chart, names in (("A", variables), ("B", CHART2_VARIABLES[: len(variables)])):
            lines.append(f"module O{chart} over {chart} {{ kahler; }}")
            lines.append(f"connection c{chart} on O{chart} {{ {' '.join(f'd({v}) -> 0;' for v in names)} }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(text=definition_files())
def test_generated_files_keep_the_cli_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("generated") / "file.kcx"
    path.write_text(text)
    for command in GENERATED_COMMANDS:
        keeps_the_contract(command, path, text)
    try:
        rendered = render_workspace(parse_workspace(text))
    except KcxError:
        return
    assert render_workspace(parse_workspace(rendered)) == rendered, text
