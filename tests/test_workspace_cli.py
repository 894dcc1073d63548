import argparse
import json
import time
from math import comb
from pathlib import Path

import pytest

from kcx.cli import COMMANDS, MAX_DEGREE, build_parser, run
from kcx.parse import MAX_DEPTH, MAX_EXPONENT, MAX_TERMS
from kcx.workspace import MAX_FREE_RANK, WorkspaceError, parse_workspace, render_workspace

import helpers

FILES = Path(__file__).parent.parent / "examples_kcx"


def read(name: str) -> str:
    return (FILES / name).read_text()


def test_parse_circle_workspace():
    ws = parse_workspace(read("circle.kcx"))
    assert set(ws.algebras) == {"A"}
    assert set(ws.modules) == {"Omega"}
    assert set(ws.connections) == {"canonical"}
    nabla = ws.connections["canonical"]
    t = nabla.ctx.omega_tensor_M
    assert nabla.gamma["d(x)"] == t.element(["-x", "0", "0", "-x"])


def test_redefinition_rejected():
    text = read("circle.kcx") + "\nalgebra A { char: 0; vars: z; }\n"
    with pytest.raises(WorkspaceError):
        parse_workspace(text)


def test_unknown_reference_rejected():
    with pytest.raises(WorkspaceError) as err:
        parse_workspace("module M over Nowhere { kahler; }")
    assert "Nowhere" in str(err.value)


def test_fat_point_connection_fails_at_load():
    text = read("fatpoint.kcx") + "\nconnection bad on Omega {\n  d(x) -> 0;\n}\n"
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(text)
    assert "residue" in str(err.value)


def test_parse_render_parse_identity():
    for name in ("circle.kcx", "fatpoint.kcx", "p1.kcx", "plane.kcx"):
        ws = parse_workspace(read(name))
        rendered = render_workspace(ws)
        ws2 = parse_workspace(rendered)
        assert render_workspace(ws2) == rendered
        assert set(ws2.algebras) == set(ws.algebras)
        assert set(ws2.connections) == set(ws.connections)
        for conn in ws.connections:
            a = ws.connections[conn]
            b = ws2.connections[conn]
            assert [a.gamma[g].comps for g in a.module.gens] == [
                b.gamma[g].comps for g in b.module.gens
            ]


def test_presented_module_relations():
    text = (
        "algebra A { char: 0; vars: x, y; }\n"
        "module M over A { gens: u, v; rel: x*u + y*v; }\n"
    )
    ws = parse_workspace(text)
    M = ws.modules["M"]
    assert M.element({"u": "x", "v": "y"}).is_zero()
    with pytest.raises(WorkspaceError):
        parse_workspace("algebra A { char: 0; vars: x; }\nmodule M over A { gens: u; rel: u^2; }")


def test_char_override():
    ws = parse_workspace(read("circle.kcx"), char_override=5)
    assert ws.char == 5
    assert ws.algebras["A"].field.char == 5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_check_circle():
    code, text = run(["check", str(FILES / "circle.kcx")])
    assert code == 0
    assert "[PASS] canonical:H.1" in text
    assert "[PASS] canonical:C.2" in text


def test_cli_check_json_schema():
    code, text = run(["check", str(FILES / "circle.kcx"), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["command"] == "check"
    assert payload["solver"] is None
    assert {c["id"] for c in payload["checks"]} >= {"well-defined[canonical]", "canonical:K.4"}
    assert all(set(c) == {"id", "status", "witness", "residue"} for c in payload["checks"])


def test_cli_solve_fatpoint_empty():
    code, text = run(["solve", str(FILES / "fatpoint.kcx"), "--module", "Omega", "--degree", "3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solver"] == {"status": "empty", "dim": -1}


def test_cli_solve_circle_family():
    # the unknowns are exactly the standard monomials, so even the largest
    # degree stays small on the circle: the dimension is 2 * degree + 3
    for degree in (1, MAX_DEGREE):
        argv = ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--degree", str(degree)]
        code, text = run([*argv, "--json"])
        assert code == 0
        assert json.loads(text)["solver"] == {"status": "family", "dim": 2 * degree + 3}


def test_cli_curvature_plane():
    code, text = run(["curvature", str(FILES / "plane.kcx")])
    assert code == 0
    assert "not flat" in text


def test_cli_torsion_plane():
    code, text = run(["torsion", str(FILES / "plane.kcx")])
    assert code == 0
    assert "torsion-free" in text  # the twisted connection is symmetric


def test_cli_torsion_reports_disagreeing_routes(monkeypatch):
    """A horizontal route that doubles the torsion is a failed check, not an error."""
    helpers.double_the_horizontal_torsion_route(monkeypatch)
    code, text = run(["torsion", str(FILES / "twist.kcx")])
    assert code == 1
    residue = "d_x2*d(x1) - d_x1*d(x2) != 2*d_x2*d(x1) - 2*d_x1*d(x2)"
    assert f"[FAIL] torsion-routes-agree[antisym]  witness: d(x1)  residue: {residue}\n" in text
    assert "[PASS] torsion-correspondence[antisym][d(x1)]" in text
    code, out = run(["torsion", str(FILES / "twist.kcx"), "--json"])
    assert code == 1
    assert json.loads(out)["checks"][0] == {
        "id": "torsion-routes-agree[antisym]", "status": "fail", "witness": "d(x1)", "residue": residue
    }


def test_cli_convert_roundtrip():
    code, text = run(["convert", str(FILES / "circle.kcx")])
    assert code == 0
    assert "[PASS] roundtrip[canonical]" in text
    assert "horizontal form of canonical:" in text


def test_cli_glue_p1():
    code, text = run(["glue", str(FILES / "p1.kcx"), "--degree", "6", "--json"])
    assert code == 0
    assert json.loads(text)["solver"] == {"status": "empty", "dim": -1}


def test_cli_glue_p1_char2():
    code, text = run(["glue", str(FILES / "p1.kcx"), "--degree", "6", "--char", "2", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solver"]["status"] == "unique"


def test_glue_refuses_charts_that_are_not_the_localizations(tmp_path):
    p1 = read("p1.kcx")
    cases = [
        # L1 and L2 keep the localizations' generators but not their ideals
        (
            p1.replace("x*x_inv - 1", "x*x_inv - 2").replace("y*y_inv - 1", "y*y_inv - 2"),
            "error: morphism 't' must go between the localized charts, but the relations of "
            "its domain do not generate the ideal (x*x_inv - 1) (line 20, column 3)",
        ),
        # tinv lands in a copy of L1 with one more relation
        (
            p1.replace("tinv : L2 -> L1", "tinv : L2 -> L1b").replace(
                "\nmorphism t ", "algebra L1b { char: 0; vars: x, x_inv; rel: x*x_inv - 1; rel: x - 1; }"
                "\n\nmorphism t "
            ),
            "error: morphism 'tinv' must go between the localized charts, but the relations of "
            "its codomain do not generate the ideal (x*x_inv - 1) (line 22, column 3)",
        ),
        # well defined both ways, but tinv(t(x)) = x_inv
        (
            p1.replace("  y -> x_inv;\n  y_inv -> x;", "  y -> x;\n  y_inv -> x_inv;"),
            "error: transition is not invertible against the supplied inverse (line 21, column 3)",
        ),
    ]
    for i, (source, message) in enumerate(cases):
        path = tmp_path / f"glue{i}.kcx"
        path.write_text(source)
        assert source != p1
        assert run(["glue", str(path), "--degree", "6"]) == (2, message)
    # the same relations written another way present the same ideal
    path = tmp_path / "scaled.kcx"
    path.write_text(p1.replace("x*x_inv - 1", "2*x*x_inv - 2"))
    assert run(["glue", str(path), "--degree", "6"]) == run(["glue", str(FILES / "p1.kcx"), "--degree", "6"])


def test_glue_refuses_connections_on_one_chart_or_two_on_a_chart(tmp_path):
    """A glue file's connections on the charts' differentials are none or one
    per chart; any other count is a usage error naming the chart and them."""
    zero = (Path(__file__).parent / "golden" / "p1_zero_connections.kcx").read_text()
    nabla2 = "connection nabla2 on Omega2 { d(y) -> 0; }\n"
    cases = [
        (
            zero.replace(nabla2, ""),
            "error: glue takes no connection or exactly one on each chart's differentials "
            "(chart1 'A1' has 'nabla1'; chart2 'A2' has none) (line 26, column 3)",
        ),
        (
            zero.replace(nabla2, nabla2 + "connection nabla3 on Omega2 { d(y) -> y*d(y)@d(y); }\n"),
            "error: glue takes no connection or exactly one on each chart's differentials "
            "(chart1 'A1' has 'nabla1'; chart2 'A2' has 'nabla2', 'nabla3') (line 28, column 3)",
        ),
    ]
    for i, (source, message) in enumerate(cases):
        path = tmp_path / f"glue{i}.kcx"
        path.write_text(source)
        assert source != zero
        for flags in ([], ["--json"], ["--char", "2"]):
            assert run(["glue", str(path), *flags]) == (2, message)


def test_cli_gallery():
    code, text = run(["gallery", "--json"])
    assert code == 0
    payload = json.loads(text)
    ids = [c["id"] for c in payload["checks"]]
    assert len(ids) >= 10
    assert "circle-naive-reject" in ids
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_gallery_deterministic():
    _, text1 = run(["gallery", "--json"])
    _, text2 = run(["gallery", "--json"])
    assert text1 == text2


def test_cli_naive_circle_reports_residue(tmp_path):
    bad = tmp_path / "naive.kcx"
    bad.write_text(
        "algebra A { char: 0; vars: x, y; rel: x^2 + y^2 - 1; }\n"
        "module Omega over A { kahler; }\n"
        "connection naive on Omega { d(x) -> 0; d(y) -> 0; }\n"
    )
    code, text = run(["check", str(bad), "--json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["checks"][0]["id"] == "well-defined[naive]"
    assert payload["checks"][0]["residue"] == "2*d(x)@d(x) + 2*d(y)@d(y)"


def test_a_byte_order_mark_is_read_past(tmp_path):
    """A definition file saved with a UTF-8 byte-order mark reads as the same file."""
    bom = tmp_path / "circle.kcx"
    bom.write_bytes(b"\xef\xbb\xbf" + (FILES / "circle.kcx").read_bytes())
    for command in (["check"], ["convert"], ["solve", "--module", "Omega", "--degree", "1"]):
        original = run([command[0], str(FILES / "circle.kcx"), *command[1:]])
        assert run([command[0], str(bom), *command[1:]]) == original
        assert original[0] != 2, command


def test_cli_exit_codes(tmp_path):
    code, text = run(["check", "/nonexistent/file.kcx"])
    assert code == 2
    latin1 = tmp_path / "latin1.kcx"
    latin1.write_bytes("# caf\xe9\n".encode("latin-1"))
    usage_errors = [
        ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--degree", "-1"],
        ["glue", str(FILES / "p1.kcx"), "--degree", "-1"],
        ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--degree", "1000000000"],
        ["solve", str(FILES / "plane.kcx"), "--module", "Omega", "--degree", str(MAX_DEGREE)],
        ["glue", str(FILES / "p1.kcx"), "--degree", str(MAX_DEGREE + 1)],
        ["check", str(latin1)],
        ["check", str(FILES)],
    ]
    for argv in usage_errors:
        code, text = run(argv)
        assert code == 2, argv
        assert text.startswith("error: "), argv
    code, _ = run(["solve", str(FILES / "circle.kcx"), "--module", "Missing"])
    assert code == 2
    # malformed definition files name the failing block's or entry's location
    one_var = "algebra A { char: 0; vars: x; }\n"
    two_algebras = "algebra A { char: 0; vars: x, y; }\nalgebra B { char: 0; vars: t; }\n"
    malformed = [
        ("algebra A {\n  char: zz;\n}\n", "(line 2, column 3)"),
        (one_var + "module M over A {\n  free: x;\n}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  free: -1;\n}\n", "(line 3, column 3)"),
        (one_var + f"module M over A {{\n  free: {MAX_FREE_RANK + 1};\n}}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: u, u;\n}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: u;\n  rel: x*u +;\n}\n", "(line 4, column 3)"),
        (f"algebra A {{\n  char: 0;\n  vars: x;\n  rel: x^{MAX_EXPONENT + 1};\n}}\n", "(line 4, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: x;\n  rel: " + "(" * 3000 + "x" + ")" * 3000 + ";\n}\n", "(line 4, column 3)"),
        (two_algebras + f"morphism f : A -> B {{\n  y -> t;\n  x -> t^{MAX_EXPONENT + 1};\n}}\n", "(line 5, column 3)"),
        (two_algebras + "morphism f : A -> B {\n  x -> t;\n}\n", "(line 3, column 1)"),
        (two_algebras + "morphism f : A -> B {\n  y -> t;\n  x -> t^;\n}\n", "(line 5, column 3)"),
        (two_algebras + "morphism f : A -> B {\n  y -> t;\n  x -> z;\n}\n", "(line 5, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: x,;\n}\n", "(line 3, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: x, 2y;\n}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: u v;\n}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: u,;\n}\n", "(line 3, column 3)"),
        (read("p1.kcx").replace("A1 at x", "A1 at z"), "(line 18, column 3)"),
        (read("p1.kcx").replace("A2 at y", "A2 at x"), "(line 19, column 3)"),
        # names the engine makes itself: S_A(M) joins the variables and the
        # module generators, and T(B) names differentials d_x, dp_x and dpd_x
        (one_var + "module M over A {\n  gens: x;\n}\nconnection c on M { x -> 0; }\n", "(line 3, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: x, d_x;\n}\nmodule M over A { kahler; }\n"
         "connection c on M { d(x) -> 0; d(d_x) -> 0; }\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: d_x;\n}\nconnection c on M { d_x -> 0; }\n", "(line 3, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: e1;\n}\nmodule M over A {\n  free: 1;\n}\n", "(line 6, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: dpd_x;\n}\n", "(line 3, column 3)"),
        # an entry given twice, or module kinds mixed, names the later entry
        ("algebra A {\n  char: 0;\n  char: 2;\n  vars: x;\n}\n", "(line 3, column 3)"),
        ("algebra A {\n  char: 0;\n  vars: x;\n  vars: y;\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A {\n  kahler;\n  rel: x*d(x);\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A {\n  free: 1;\n  rel: x*e1;\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A {\n  rel: 0;\n}\n", "(line 3, column 3)"),
        (one_var + "module M over A {\n  gens: u;\n  free: 2;\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A {\n  kahler;\n  gens: u;\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A {\n  kahler;\n  kahler;\n}\n", "(line 4, column 3)"),
        (one_var + "module M over A { kahler; }\nconnection c on M {\n  d(x) -> 0;\n  d( x ) -> d(x) @ d(x);\n}\n",
         "(line 5, column 3)"),
        (two_algebras + "morphism f : A -> B {\n  x -> t;\n  y -> t;\n  x -> 0;\n}\n", "(line 6, column 3)"),
        (read("p1.kcx").replace("  inverse: tinv;\n", "  inverse: tinv;\n  inverse: t;\n"), "(line 22, column 3)"),
    ]
    for i, (source, where) in enumerate(malformed):
        path = tmp_path / f"malformed{i}.kcx"
        path.write_text(source)
        code, text = run(["check", str(path)])
        assert code == 2, source
        assert text.startswith("error: ") and text.endswith(where), text
    # a failing check exits 1
    code, text = run(["check", str(FILES / "p1.kcx")])
    assert code == 1  # no connections in the file


def test_a_kahler_module_refuses_a_relation(tmp_path):
    path = tmp_path / "omega.kcx"
    path.write_text(read("circle.kcx").replace("  kahler;\n", "  kahler;\n  rel: x*d(x);\n"))
    assert run(["check", str(path)]) == (2, "error: a module rel: entry needs a gens: entry (line 10, column 3)")
    path.write_text(read("circle.kcx").replace("  kahler;\n", "  kahler;\n  free: 2;\n"))
    assert run(["check", str(path)]) == (2, "error: module 'Omega' cannot be both kahler and free (line 10, column 3)")


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery", "--char", "3", "--connection", "zz"],
        ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--connection", "nope"],
        ["glue", str(FILES / "p1.kcx"), "--connection", "nope"],
    ],
)
def test_subcommands_refuse_options_they_do_not_read(argv):
    assert run(argv) == (2, "")


@pytest.mark.parametrize("command", ["check", "curvature", "torsion", "convert"])
def test_connection_commands_read_char(command):
    assert run([command, str(FILES / "circle.kcx"), "--char", "5", "--connection", "canonical"])[0] == 0


def test_parentheses_nest_up_to_the_parser_limit(tmp_path):
    def sources(depth: int) -> dict[str, str]:
        expr = "(" * depth + "t" + ")" * depth
        return {
            "morphism": "algebra A { char: 0; vars: x; }\nalgebra B { char: 0; vars: t; }\n"
            f"morphism f : A -> B {{\n  x -> {expr};\n}}\n",
            "rel": f"algebra A {{\n  char: 0;\n  vars: t;\n  rel: {expr};\n}}\n",
        }

    at_limit = sources(MAX_DEPTH)
    ws = parse_workspace(at_limit["morphism"])
    assert ws.morphisms["f"].image_of("x").render() == "t"
    assert [r.render() for r in parse_workspace(at_limit["rel"]).algebras["A"].relations] == ["t"]
    for kind, source in at_limit.items():
        path = tmp_path / f"{kind}_at_limit.kcx"
        path.write_text(source)
        assert run(["check", str(path)])[0] == 1  # parsed; the file has no connection
    for kind, source in sources(MAX_DEPTH + 1).items():
        path = tmp_path / f"{kind}_past_limit.kcx"
        path.write_text(source)
        code, text = run(["check", str(path)])
        assert code == 2, kind
        assert text.startswith("error: ") and text.endswith("(line 4, column 3)"), text
        assert f"nest deeper than {MAX_DEPTH}" in text


@pytest.mark.parametrize("expr", ["(a+b+c+d)^64", "((x+y)^64)^64", "(((x+y)^64)^64)^4"])
def test_runaway_expansions_are_refused_before_they_run(tmp_path, expr):
    """Each of these ran for tens of seconds or more before expansions were bounded."""
    path = tmp_path / "big.kcx"
    path.write_text(f"algebra A {{\n  char: 0;\n  vars: a, b, c, d, x, y;\n  rel: {expr};\n}}\n")
    start = time.perf_counter()
    code, text = run(["check", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert text.startswith("error: ") and text.endswith("(line 4, column 3)"), text
    assert f"expansion could pass {MAX_TERMS} terms at column" in text


def test_runaway_morphism_substitution_is_refused_before_it_runs(tmp_path):
    """Certifying this morphism expanded (a+b+c+d)^64 with no bound, and ran
    until killed, before substitutions were bounded like parsed expansions."""
    path = tmp_path / "big.kcx"
    path.write_text(
        "algebra A { char: 0; vars: x; rel: x^64; }\n"
        "algebra B { char: 0; vars: a, b, c, d; }\n"
        "morphism f : A -> B { x -> a+b+c+d; }\n"
    )
    start = time.perf_counter()
    code, text = run(["check", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert text == f"error: morphism 'f': substitution could pass {MAX_TERMS} terms (line 3, column 1)"


def test_runaway_connection_product_is_refused_before_it_runs(tmp_path):
    """A connection entry multiplies COEF by each partial of EXPR.  With
    (a+b+c+d)^24 on both sides that product ran for tens of seconds before it
    was bounded like parsed products; the largest power whose products stay
    within the bound still loads."""

    def source(n: int) -> str:
        return (
            "algebra A { char: 0; vars: a, b, c, d; }\nmodule F over A { free: 1; }\n"
            f"connection nabla on F {{ e1 -> (a+b+c+d)^{n} * d((a+b+c+d)^{n}) @ e1; }}\n"
        )

    path = tmp_path / "big.kcx"
    path.write_text(source(24))
    start = time.perf_counter()
    code, text = run(["check", str(path)])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert text == f"error: connection 'nabla': expansion could pass {MAX_TERMS} terms (line 3, column 25)"
    # (a+b+c+d)^n has C(n+3, 3) terms and each partial C(n+2, 3)
    n = max(k for k in range(1, 25) if comb(k + 3, 3) * comb(k + 2, 3) <= MAX_TERMS)
    for power, want in ((n, 0), (n + 1, 2)):
        path.write_text(source(power))
        assert run(["check", str(path)])[0] == want, power


def test_runaway_glue_inverse_check_is_refused_at_the_inverse_entry():
    """The inverse check composes tinv after t, which expands w^20 in
    z + x + x_inv + 1 + z*x past the bound; parsing composes neither map, so
    the error is placed at the `inverse:` entry and names both maps."""
    path = Path(__file__).parent / "golden" / "glue_expansion.kcx"
    start = time.perf_counter()
    code, text = run(["glue", str(path)])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert text.startswith("error: transition 't' and inverse 'tinv': ")
    assert text.endswith(f"substitution could pass {MAX_TERMS} terms (line 7, column 57)"), text


@pytest.mark.parametrize("command", ["check", "curvature", "torsion", "convert"])
def test_commands_over_connections_fail_on_a_file_without_one(command):
    code, text = run([command, str(FILES / "p1.kcx")])
    assert code == 1
    assert text == f"command: {command}\n[FAIL] no-connections  residue: file defines no connection"
    code, text = run([command, str(FILES / "p1.kcx"), "--json"])
    assert code == 1
    assert json.loads(text) == {
        "command": command,
        "checks": [
            {"id": "no-connections", "status": "fail", "witness": "", "residue": "file defines no connection"}
        ],
        "solver": None,
    }


def test_ill_defined_morphism_exits_2_with_its_residue(tmp_path):
    algebras = "algebra A { char: 0; vars: x, y; rel: x^2 + y^2 - 1; }\n"
    cases = {
        "algebra B { char: 0; vars: t; rel: t^3; }\n": "2*t^2 - 1",  # reaches a normal form
        "algebra B { char: 0; vars: t; }\n": "2*t^2 - 1",  # no codomain relation to match
    }
    for codomain, residue in cases.items():
        path = tmp_path / "ill.kcx"
        path.write_text(algebras + codomain + "morphism f : A -> B {\n  x -> t;\n  y -> -t;\n}\n")
        assert run(["check", str(path)]) == (
            2,
            "error: morphism 'f' ill-defined: f: relation x^2 + y^2 - 1 has nonzero residue "
            f"{residue} (line 3, column 1)",
        )
    path.write_text(
        algebras + "algebra B { char: 0; vars: u, v; rel: u^2 + v^2 - 1; }\n"
        "morphism f : A -> B {\n  x -> -v;\n  y -> u;\n}\n"
    )
    assert run(["check", str(path)])[0] == 1  # certified by matching; no connection


# ---------------------------------------------------------------------------
# the parser is built once per process
# ---------------------------------------------------------------------------


def test_runs_build_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    run(["check", str(FILES / "circle.kcx")])
    assert len(built) == 1 + len(COMMANDS)  # the parser and one subparser per command
    for argv in (["check", str(FILES / "circle.kcx"), "--json"], ["gallery", "--zz"], ["convert", "--help"]):
        run(argv)
    assert len(built) == 1 + len(COMMANDS)


SHARED_PARSER_ARGVS = [
    ["check", str(FILES / "circle.kcx")],
    ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--degree", "1", "--json"],
    ["glue", str(FILES / "p1.kcx"), "--degree", "2", "--char", "2"],
    ["check", str(FILES / "circle.kcx"), "--unknown"],
    ["solve", str(FILES / "circle.kcx")],
    ["check", str(FILES / "circle.kcx"), "--char", "two"],
    ["solve", str(FILES / "circle.kcx"), "--module", "Omega", "--degree", "-1"],
    ["solve", "--help"],
    ["glue", "--help"],
    ["--help"],
]


def _outcome(argv, capsys):
    result = run(argv)
    return result, capsys.readouterr()


def test_a_shared_parser_answers_each_argv_as_a_fresh_one(monkeypatch, capsys):
    """Every argv gives the same code, text, stdout and stderr on the shared
    parser, in either order, as on a parser built for it alone; help and usage
    text wrap to the COLUMNS of the call, not of the parser's build."""
    fresh = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in SHARED_PARSER_ARGVS:
            build_parser.cache_clear()
            fresh[columns, tuple(argv)] = _outcome(argv, capsys)
    helps = [fresh[columns, ("--help",)][1].out for columns in ("40", "200")]
    assert helps[0].startswith("usage: kcx") and helps[0] != helps[1]
    build_parser.cache_clear()
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in SHARED_PARSER_ARGVS + SHARED_PARSER_ARGVS[::-1]:
            assert _outcome(argv, capsys) == fresh[columns, tuple(argv)], (columns, argv)


GLUE_BLOCK = "glue {\n  chart1: A1 at x;\n  chart2: A2 at y;\n  transition: t;\n  inverse: tinv;\n}\n"
# definition files the CLI refuses with exit 2: id, source, command and the
# message after "error: "
REFUSALS = [
    ("unterminated", "algebra A { char: 0; vars: x;", "check", "unterminated block (line 1, column 30)"),
    ("empty", "# nothing here\n", "check", "empty definition file"),
    ("no-char", "algebra A { vars: x; }\n", "check", "algebra block needs a char entry (line 1, column 1)"),
    (
        "mixed-char",
        "algebra A { char: 0; vars: x; }\nalgebra B { char: 2; vars: y; }\n",
        "check",
        "all algebras in one file must share the characteristic (line 2, column 1)",
    ),
    (
        "char-4",
        "algebra A { char: 4; vars: x; }\n",
        "check",
        "bad algebra 'A': characteristic must be 0 or a prime below 2**31, got 4 (line 1, column 1)",
    ),
    ("two-glues", read("p1.kcx") + GLUE_BLOCK, "glue", "only one glue block is allowed (line 23, column 1)"),
    (
        "chart-entry",
        read("p1.kcx").replace("chart1: A1 at x;", "chart1: A1;"),
        "glue",
        "chart entries must look like 'NAME at VAR' (line 17, column 1)",
    ),
    (
        "chart-generators",
        read("p1.kcx").replace("x_inv", "x_i"),
        "glue",
        "morphism 't' must go between the localized charts "
        "(expected generators ('x', 'x_inv') -> ('y', 'y_inv')) (line 20, column 3)",
    ),
]


@pytest.mark.parametrize("name,source,command,message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_definition_file_refusals_exit_2_with_their_message(tmp_path, name, source, command, message):
    path = tmp_path / f"{name}.kcx"
    path.write_text(source)
    assert run([command, str(path)]) == (2, f"error: {message}")


def test_an_unknown_connection_name_exits_2():
    code, text = run(["check", str(FILES / "circle.kcx"), "--connection", "nope"])
    assert (code, text) == (2, "error: no connection named 'nope' in the file")
