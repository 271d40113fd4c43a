"""Input documents and the command line: grammar round trips, positioned
parse errors, document builders, frozen command output, and exit codes."""

import io
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from quivermoduli import cli, degeneration, grass
from quivermoduli.cli import main
from quivermoduli.dsl import (
    doc_algebra,
    doc_direction,
    doc_module,
    doc_point,
    parse_input,
    parse_points,
)
from quivermoduli.errors import TypeMismatch, UnknownLabel
from quivermoduli.fields import parse_field_name
from quivermoduli.grass import endo_space, projective_cover, skeleta_of_point

from oracles import path_from_labels, render_document

LOOP_BRIDGE = """\
quiver {
  vertices: 1 2;
  arrows: a: 1 -> 1, b: 1 -> 2;
}
algebra {
  field: Q;
  max_len: 3;
  relations: [1*a*a];
}
point     { generators: [(1*b).z1]; }
top       { mult: (1, 0); }
dimvec    { d: (2, 1); }
skeleton  { elems: [e1.z1, a.z1, b*a.z1]; }
direction { z1: (1*a).z1; }
"""

KRONECKER_F3 = """\
# two arrows 1 -> 2; the module glues two arrowwise projections
quiver {
  vertices: 1 2;
  arrows: a1: 1 -> 2, a2: 1 -> 2;
}
algebra {
  field: F3;
  max_len: 2;
}
module { d: (2, 2); a1: [[1, 0], [0, 0]]; a2: [[0, 0], [0, 1]]; }
weight { theta: (-1, 1); }
"""

KRONECKER_Q_POINT = """\
quiver {
  vertices: 1 2;
  arrows: a1: 1 -> 2, a2: 1 -> 2;
}
algebra {
  field: Q;
  max_len: 2;
}
point { generators: [(1*a2 - 5*a1).z1]; }
top   { mult: (1, 0); }
"""

MIXED_TOPS = """\
quiver {
  vertices: 1 2;
  arrows: w1: 1 -> 1, w2: 1 -> 1, w3: 1 -> 1, w4: 1 -> 1, a: 1 -> 2, b: 1 -> 2;
}
algebra {
  field: Q;
  max_len: 3;
  relations: [1*w1*w1, 1*w1*w2, 1*w1*w3, 1*w1*w4,
              1*w2*w1, 1*w2*w2, 1*w2*w3, 1*w2*w4,
              1*w3*w1, 1*w3*w2, 1*w3*w3, 1*w3*w4,
              1*w4*w1, 1*w4*w2, 1*w4*w3, 1*w4*w4,
              1*a*w3, 1*a*w4, 1*b*w1, 1*b*w2];
}
top   { mult: (2, 0); }
point { generators: [(1*a + 1*b).z2,
                     (1*a*w1 + 2*a*w2).z2,
                     (1*b*w3 + 3*b*w4).z2]; }
direction { z2: (1*w1 + 1*w4).z2; }
"""

MIXED_TOPS_CANDIDATES = """\
point { generators: [(1*a*w1 + 2*a*w2).z2, (1*b*w3 + 3*b*w4).z2, (1*a*w1 + 1*b*w4).z2]; }
point { generators: [(1*a*w1 + 2*a*w2).z2, (1*b*w3 + 3*b*w4).z2, (2*a*w1 + 3*b*w4).z2]; }
"""


SAMPLE_INPUTS = Path(__file__).resolve().parent.parent / "scripts" / "inputs"


def run_cli(tmp_path, capsys, text, command, *args):
    path = tmp_path / "doc.qm"
    path.write_text(text)
    code = main([command, str(path), *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- grammar


def test_parse_render_parse_is_a_fixpoint():
    for text in (LOOP_BRIDGE, KRONECKER_F3, KRONECKER_Q_POINT, MIXED_TOPS):
        doc = parse_input(text)
        rendered = render_document(doc)
        again = parse_input(rendered)
        assert again == doc
        assert render_document(again) == rendered


def test_render_keeps_term_order_and_folds_signs():
    doc = parse_input(KRONECKER_Q_POINT)
    assert "(1*a2 - 5*a1).z1" in render_document(doc)


def test_relation_paths_read_right_to_left():
    text = """\
quiver { vertices: 1 2 3; arrows: a: 1 -> 2, b: 2 -> 3; }
algebra { field: Q; max_len: 2; relations: [1*b*a]; }
"""
    alg = doc_algebra(parse_input(text))
    (path,) = list(alg.relations[0].terms)
    assert path.arrows == ("a", "b")
    assert str(path) == "b*a"


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(SyntaxError, match="line 1, column 19"):
        parse_input("quiver { vertices 1 2; }")
    with pytest.raises(SyntaxError, match="end of input"):
        parse_input("quiver { vertices: 1 2;")
    with pytest.raises(SyntaxError, match="must start with a quiver block"):
        parse_input("algebra { field: Q; max_len: 2; }")
    with pytest.raises(SyntaxError, match="needs max_len"):
        parse_input("quiver { vertices: 1; arrows: a: 1 -> 1; }\nalgebra { field: Q; }")
    with pytest.raises(SyntaxError, match="duplicate top block"):
        parse_input(
            "quiver { vertices: 1; arrows: a: 1 -> 1; }\n"
            "algebra { field: Q; max_len: 2; }\n"
            "top { mult: (1); }\ntop { mult: (1); }"
        )


def test_unknown_labels_are_flagged_with_positions():
    with pytest.raises(UnknownLabel, match="unknown arrow label 'c'"):
        parse_input(
            "quiver { vertices: 1; arrows: a: 1 -> 1; }\n"
            "algebra { field: Q; max_len: 2; relations: [1*c*a]; }"
        )
    with pytest.raises(UnknownLabel, match="undeclared vertex 3"):
        parse_input("quiver { vertices: 1 2; arrows: a: 1 -> 3; }")
    with pytest.raises(UnknownLabel, match="line 3.*unknown arrow label 'b'"):
        parse_input(
            "quiver { vertices: 1; arrows: a: 1 -> 1; }\n"
            "algebra { field: Q; max_len: 2; }\n"
            "module { d: (1); b: [[0]]; }"
        )


def test_malformed_paths_are_type_errors():
    with pytest.raises(TypeMismatch, match="path does not compose: a cannot follow b"):
        parse_input(
            "quiver { vertices: 1 2; arrows: a: 1 -> 1, b: 1 -> 2; }\n"
            "algebra { field: Q; max_len: 2; relations: [1*a*b]; }"
        )
    with pytest.raises(TypeMismatch, match="idempotent e1 cannot be composed"):
        parse_input(
            "quiver { vertices: 1; arrows: a: 1 -> 1; }\n"
            "algebra { field: Q; max_len: 2; relations: [1*a*e1]; }"
        )
    with pytest.raises(TypeMismatch, match="declared as 1..n in order"):
        parse_input("quiver { vertices: 1 3; arrows: a: 1 -> 1; }")


_HEAD = "quiver { vertices: 1 2; arrows: a: 1 -> 1, b: 1 -> 2; }\n"
_DOC = _HEAD + "algebra { field: Q; max_len: 3; relations: [1*a*a]; }\n"

# one malformed document per error site of the parser, with its exact error
PARSE_ERRORS = [
    ("quiver { vertices: 1 @ }", SyntaxError, "line 1, column 22: unexpected character '@'"),
    ("quiver { vertices: 1 2; arrows: a: 1 > 2; }", SyntaxError,
     "line 1, column 38: unexpected character '>'"),
    ("quiver { vertices: 1 2;", SyntaxError, "line 1, column 24: expected '}', found end of input"),
    ("quiver { vertices 1 2; }", SyntaxError, "line 1, column 19: expected ':', found '1'"),
    ("", SyntaxError, "line 1, column 1: expected ident, found ''"),
    ("quiver { vertices: x; }", SyntaxError, "line 1, column 20: expected int, found 'x'"),
    ("quiver { vertices: 2 1; }", TypeMismatch,
     "vertices must be declared as 1..n in order, got (2, 1)"),
    ("quiver { vertices: 1 2; arrows: a: 1 -> 1, a: 1 -> 2; }", TypeMismatch,
     "line 1, column 44: arrow label 'a' declared twice"),
    ("quiver { vertices: 1 2; arrows: a: 1 -> 3; }", UnknownLabel,
     "line 1, column 33: arrow a uses undeclared vertex 3"),
    ("algebra { max_len: 2; }", SyntaxError,
     "line 1, column 1: the document must start with a quiver block"),
    (_HEAD + "algebra { field: F4; max_len: 3; }", TypeMismatch,
     "line 2, column 18: field order must be prime, got 4"),
    (_HEAD + "algebra { field: Q; order: 3; max_len: 3; }", SyntaxError,
     "line 2, column 21: unknown algebra entry 'order'"),
    (_HEAD + "algebra { field: Q; }", SyntaxError, "line 2, column 22: algebra block needs max_len"),
    (_HEAD + "algebra { max_len: 3; relations: [1*e3]; }", UnknownLabel,
     "line 2, column 37: idempotent of undeclared vertex 3"),
    (_HEAD + "algebra { max_len: 3; relations: [1*a*e1]; }", TypeMismatch,
     "line 2, column 39: idempotent e1 cannot be composed with arrows"),
    (_HEAD + "algebra { max_len: 3; relations: [1*c]; }", UnknownLabel,
     "line 2, column 37: unknown arrow label 'c'"),
    (_HEAD + "algebra { max_len: 3; relations: [1*a*b]; }", TypeMismatch,
     "line 2, column 37: path does not compose: a cannot follow b"),
    (_HEAD + "algebra { max_len: 3; relations: [1*a + ]; }", SyntaxError,
     "line 2, column 41: expected ident, found ']'"),
    (_HEAD + "algebra { max_len: 3; relations: [1*a, ]; }", SyntaxError,
     "line 2, column 40: expected ident, found ']'"),
    (_HEAD + "algebra { max_len: 3; relations: [2/0*a]; }", SyntaxError,
     "line 2, column 38: zero denominator"),
    (_HEAD + "algebra { max_len: 3; relations: 1*a; }", SyntaxError,
     "line 2, column 34: expected '[', found '1'"),
    (_HEAD, SyntaxError, "line 2, column 1: the document needs an algebra block"),
    (_DOC + "quiver { vertices: 1; }", SyntaxError, "line 3, column 1: duplicate quiver block"),
    (_DOC + "algebra { max_len: 2; }", SyntaxError, "line 3, column 1: duplicate algebra block"),
    (_DOC + "modul { d: (1, 1); }", SyntaxError, "line 3, column 1: unknown block 'modul'"),
    (_DOC + "module { d: (1, 1); c: [[1]]; }", UnknownLabel,
     "line 3, column 21: unknown arrow label 'c'"),
    (_DOC + "module { d: (1, 1); a: [[1]]; a: [[0]]; }", TypeMismatch,
     "line 3, column 31: matrix for arrow 'a' given twice"),
    (_DOC + "module { a: [[1]]; }", SyntaxError,
     "line 3, column 21: module block needs a dimension vector d"),
    (_DOC + "module { d: (1, 1); b: [[1, 0]]; }", TypeMismatch,
     "line 3, column 21: matrix for b must be 1x1"),
    (_DOC + "module { d: (1, 1, 1); }", TypeMismatch,
     "line 3, column 10: expected 2 entries, one per vertex, got 3"),
    (_DOC + "module { d: (1, 1); a: [[1/0]]; }", SyntaxError, "line 3, column 29: zero denominator"),
    (_DOC + "point { generators: [(1*b).y1]; }", SyntaxError,
     "line 3, column 28: expected a copy marker z<r>, found 'y1'"),
    (_DOC + "point { generators: []; }", SyntaxError, "line 3, column 22: expected '(', found ']'"),
    (_DOC + "point { generators: [(1*b).z1] }", SyntaxError,
     "line 3, column 32: expected ';', found '}'"),
    (_DOC + "point { gens: [(1*b).z1]; }", SyntaxError,
     "line 3, column 9: expected 'generators', found 'gens'"),
    (_DOC + "point { generators: [(1*b)z1]; }", SyntaxError,
     "line 3, column 27: expected '.', found 'z1'"),
    (_DOC + "weight { theta: (1); }", TypeMismatch,
     "line 3, column 10: expected 2 entries, one per vertex, got 1"),
    (_DOC + "top { mult: (1, 0, 0); }", TypeMismatch,
     "line 3, column 7: expected 2 entries, one per vertex, got 3"),
    (_DOC + "dimvec { dim: (1, 0); }", SyntaxError, "line 3, column 10: expected 'd', found 'dim'"),
    (_DOC + "layering { layers: []; }", SyntaxError, "line 3, column 21: expected '(', found ']'"),
    (_DOC + "layering { layers: [(1, 0), (1)]; }", TypeMismatch,
     "line 3, column 12: expected 2 entries, one per vertex, got 1"),
    (_DOC + "skeleton { elems: [a]; }", SyntaxError,
     "line 3, column 20: skeleton element needs a trailing .z<r> copy marker"),
    (_DOC + "skeleton { elems: [a*z1]; }", SyntaxError,
     "line 3, column 22: skeleton element needs a trailing .z<r> copy marker"),
    (_DOC + "skeleton { elems: [a.x1]; }", SyntaxError,
     "line 3, column 22: skeleton element needs a trailing .z<r> copy marker"),
    (_DOC + "skeleton { elems: [c.z1]; }", UnknownLabel,
     "line 3, column 20: unknown arrow label 'c'"),
    (_DOC + "direction { y1: (1*a).z1; }", SyntaxError,
     "line 3, column 13: expected a generator key z<r>, found 'y1'"),
    (_DOC + "direction { z1: (1*a).z1; z1: (1*b).z1; }", TypeMismatch,
     "line 3, column 27: direction for z1 given twice"),
    (_DOC + "direction { z1 (1*a).z1; }", SyntaxError, "line 3, column 16: expected ':', found '('"),
    # positions after comments, CRLF line ends and tabs, and at the end of input
    ("# two vertices, one loop\nquiver { vertices: 1 2; # declared in order\n  arrows: a: 1 -> 3; }",
     UnknownLabel, "line 3, column 11: arrow a uses undeclared vertex 3"),
    (_DOC.replace("\n", "\r\n") + "module { d: (1, 1); c: [[1]]; }", UnknownLabel,
     "line 3, column 21: unknown arrow label 'c'"),
    (_HEAD + "algebra {\tfield: Q;\tmax_len: 3;\trelations: [1*c]; }", UnknownLabel,
     "line 2, column 47: unknown arrow label 'c'"),
    (_DOC + "module { d: (1, 1);", SyntaxError, "line 3, column 20: expected ident, found ''"),
]

# the same for candidate files, parsed against _DOC
POINT_ERRORS = [
    ("", SyntaxError, "line 1, column 1: the candidate file has no point blocks"),
    ("weight { theta: (1, 1); }", SyntaxError,
     "line 1, column 1: a candidate file may contain only point blocks"),
    ("point { generators: [(1*c).z1]; }", UnknownLabel,
     "line 1, column 25: unknown arrow label 'c'"),
    ("point { generators: [(1*a).z1] }", SyntaxError, "line 1, column 32: expected ';', found '}'"),
]


@pytest.mark.parametrize("text, exc, message", PARSE_ERRORS)
def test_every_parse_error_keeps_its_type_and_message(text, exc, message):
    with pytest.raises(exc) as info:
        parse_input(text)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("text, exc, message", POINT_ERRORS)
def test_every_candidate_file_error_keeps_its_type_and_message(text, exc, message):
    with pytest.raises(exc) as info:
        parse_points(text, parse_input(_DOC))
    assert type(info.value) is exc and str(info.value) == message


def test_module_builder_checks_shapes_and_relations():
    with pytest.raises(TypeMismatch, match="matrix for a must be 2x1"):
        parse_input(
            "quiver { vertices: 1 2; arrows: a: 1 -> 2; }\n"
            "algebra { field: Q; max_len: 2; }\n"
            "module { d: (1, 2); a: [[1]]; }"
        )
    offending = parse_input(
        "quiver { vertices: 1; arrows: a: 1 -> 1; }\n"
        "algebra { field: Q; max_len: 3; relations: [1*a*a]; }\n"
        "module { d: (2); a: [[0, 1], [1, 0]]; }"
    )
    alg = doc_algebra(offending)
    with pytest.raises(TypeMismatch, match="do not satisfy the algebra relations"):
        doc_module(offending, alg)


def test_module_builder_fills_missing_arrows_with_zeros():
    doc = parse_input(KRONECKER_F3.replace("a2: [[0, 0], [0, 1]]; ", ""))
    alg = doc_algebra(doc)
    M = doc_module(doc, alg)
    z = alg.field.zero()
    assert M.arrows["a2"] == {}
    assert M.mats["a2"] == [[z, z], [z, z]]


def test_point_generator_matches_chart_coordinates():
    doc = parse_input(KRONECKER_Q_POINT)
    alg = doc_algebra(doc)
    P = projective_cover(alg, doc.top)
    C = doc_point(P, doc.points[0])
    assert C.rows == ((Fraction(0), Fraction(1), Fraction(-1, 5)),)


FRACTIONS = """\
quiver {
  vertices: 1 2 3;
  arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3;
}
algebra {
  field: Q;
  max_len: 3;
  relations: [1*c*a - 2/5*c*b];
}
module { d: (1, 2, 1); a: [[1], [0]]; b: [[0], [1]]; c: [[1/5, 1/2]]; }
weight { theta: (-2, 1, 0); }
top    { mult: (1, 0, 0); }
point  { generators: [(1/2*b - 1/4*a).z1]; }
"""


@pytest.mark.parametrize(
    "name, c_b, c_row, b_coeff",
    [("Q", Fraction(5, 2), [Fraction(1, 5), Fraction(1, 2)], Fraction(-2)), ("F3", 1, [2, 2], 1)],
)
def test_fraction_coefficients_are_read_in_the_field(name, c_b, c_row, b_coeff):
    # c*b = 5/2 c*a, and the module satisfies the relation (doc_module
    # checks it); the generator 1/2 b - 1/4 a is a + b_coeff*b once scaled
    doc = parse_input(FRACTIONS)
    alg = doc_algebra(doc, parse_field_name(name))
    b, c_a = (alg.basis.index(path_from_labels(alg.quiver, w)) for w in (["b"], ["c", "a"]))
    assert alg.arrows["c"][b] == {c_a: c_b}
    assert doc_module(doc, alg).mats["c"] == [c_row]
    C = doc_point(projective_cover(alg, doc.top), doc.points[0])
    assert C.rows[0] == (0, 1, b_coeff, 0)


@pytest.mark.parametrize(
    "old, new, command",
    [("2/5*c*b", "2/3*c*b", "algebra-info"), ("1/5, 1/2", "1/3, 1/2", "stability"), ("1/2*b", "1/3*b", "point")],
    ids=["relation", "module", "point"],
)
def test_a_denominator_that_vanishes_in_the_field_exits_with_1(tmp_path, capsys, old, new, command):
    text = FRACTIONS.replace(old, new)
    assert run_cli(tmp_path, capsys, text, command, "--field", "F3") == (
        1,
        "",
        "error: denominator 3 vanishes in F_3\n",
    )


def test_point_copy_marker_must_name_a_cover_summand():
    doc = parse_input(KRONECKER_Q_POINT.replace(".z1", ".z2"))
    alg = doc_algebra(doc)
    P = projective_cover(alg, doc.top)
    with pytest.raises(TypeMismatch, match="z2 does not exist"):
        doc_point(P, doc.points[0])


def test_direction_must_be_an_endomorphism_of_the_cover():
    doc = parse_input(
        KRONECKER_Q_POINT.replace(
            "point { generators: [(1*a2 - 5*a1).z1]; }",
            "direction { z1: (1*a1).z1; }",
        )
    )
    alg = doc_algebra(doc)
    P = projective_cover(alg, doc.top)
    endo = endo_space(P)
    with pytest.raises(TypeMismatch, match=r"^z1 -> a1\*z1 is not an endomorphism of the cover$"):
        doc_direction(P, endo, doc)


@pytest.mark.parametrize("top, path", [("(0, 1)", "a*a"), ("(1, 0)", "b*a*a")])
def test_a_direction_term_off_the_vertices_of_its_generators_is_refused_even_in_the_ideal(top, path):
    # a*a and b*a*a lie in the ideal; over top (0, 1) the cover is
    # Lambda*e2 = span(z1) and a*a starts at 1, not at z1's vertex 2; over
    # top (1, 0), b*a*a starts at z1's vertex 1 but ends at 2
    doc = parse_input(_DOC + f"top {{ mult: {top}; }}\ndirection {{ z1: (1*{path}).z1; }}")
    P = projective_cover(doc_algebra(doc), doc.top)
    with pytest.raises(TypeMismatch, match=rf"^z1 -> {re.escape(path)}\*z1 is not an endomorphism of the cover$"):
        doc_direction(P, endo_space(P), doc)


def test_a_point_generator_off_the_vertex_of_its_generator_is_refused_even_in_the_ideal():
    # a*a lies in the ideal and starts at 1; over top (0, 1) the cover is
    # span(z1), with z1 at vertex 2
    doc = parse_input(_DOC + "top { mult: (0, 1); }\npoint { generators: [(1*a*a).z1]; }")
    P = projective_cover(doc_algebra(doc), doc.top)
    with pytest.raises(ValueError, match=r"^element does not start at the vertex of z1$"):
        doc_point(P, doc.points[0])


# ---------------------------------------------------------------- commands


def test_algebra_info_human_output(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, LOOP_BRIDGE, "algebra-info")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "algebra over Q: dim 5, Loewy length 3"
    assert lines[1] == "nakayama: no, graded ideal: yes"
    assert "Lambda*e1: dims (2, 2), layering (1, 0) | (1, 1) | (0, 1)" in lines


def test_algebra_info_json_report(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "algebra-info", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tool"] == "quivermoduli"
    assert data["command"] == "algebra-info"
    assert data["seed"] == 0
    assert data["result"]["dim"] == 5
    assert data["result"]["loewy_length"] == 3
    assert data["result"]["nakayama"] is False


def test_field_override_rebuilds_the_algebra(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, LOOP_BRIDGE, "algebra-info", "--field", "F3"
    )
    assert code == 0
    assert out.splitlines()[0] == "algebra over F3: dim 5, Loewy length 3"


def test_skeleta_command_lists_both(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "skeleta")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 skeleta for top (1, 0), d = (2, 1)"
    assert "  {z1, a*z1, b*z1}  dims (2, 1)" in lines
    assert "  {z1, a*z1, b*a*z1}  dims (2, 1)" in lines


def test_chart_command_names_variables(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "chart")
    assert code == 0
    assert "1 variable, 0 equations" in out
    assert "c1: coefficient of b*a*z1 in b*z1" in out


def test_point_command_prints_rows_and_gradedness(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "point")
    assert code == 0
    assert "point of dim 1, quotient dims (2, 1)" in out
    assert "  [0, 0, 1, 0]" in out.splitlines()
    assert "quotient layering: (1, 0) | (1, 0) | (0, 1)" in out
    assert "homogeneous: yes" in out


def test_point_command_lists_the_skeleta_of_its_quotient_layering(tmp_path, capsys, monkeypatch):
    # the command builds P/C once and hands its layering to skeleta_of_point
    built = []
    coker_rep = grass.coker_rep

    def counting(P, C):
        built.append(C)
        return coker_rep(P, C)

    monkeypatch.setattr(cli, "coker_rep", counting)
    monkeypatch.setattr(grass, "coker_rep", counting)
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "point", "--json")
    assert code == 0
    assert len(built) == 1
    result = json.loads(out)["result"]
    doc = parse_input(LOOP_BRIDGE)
    P = projective_cover(doc_algebra(doc), doc.top)
    C = doc_point(P, doc.points[0])
    assert [[P.describe(b) for b in sk.elems] for sk in skeleta_of_point(P, C)] == result["charts"]
    assert len(result["charts"]) == 1


def test_skeleton_layerings_have_one_row_per_loewy_layer(capsys):
    path = str(SAMPLE_INPUTS / "loop_bridge.qm")
    assert main(["algebra-info", path, "--json"]) == 0
    loewy = json.loads(capsys.readouterr().out)["result"]["loewy_length"]
    assert loewy == 3
    assert main(["skeleta", path, "--json"]) == 0
    layerings = [s["layering"] for s in json.loads(capsys.readouterr().out)["result"]["skeleta"]]
    assert layerings and all(len(lay) == loewy for lay in layerings)
    assert main(["point", path, "--json"]) == 0
    quotient = json.loads(capsys.readouterr().out)["result"]["quotient_layering"]
    assert quotient == [[1, 0], [1, 0], [0, 1]]
    assert quotient in layerings


def test_orbit_command_reports_the_moving_endomorphism(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "orbit", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {
        "aut": 1,
        "unipotent": 1,
        "graded": 0,
        "invariant": False,
        "moved_by": "z1 -> a*z1",
    }
    assert data["certificates"] == {"moved_by": "z1 -> a*z1"}


FORK_MERGE_SIMPLE_TOP = """\
# the merge algebra with a simple top: the base point is spanned by b*z1
# and c*b*z1 = c*a*z1
quiver {
  vertices: 1 2 3;
  arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3;
}
algebra {
  field: F2;
  max_len: 3;
  relations: [1*c*a - 1*c*b];
}
top    { mult: (1, 0, 0); }
dimvec { d: (1, 1, 0); }
point  { generators: [(1*b).z1]; }
"""


def test_orbit_command_says_when_a_point_is_invariant(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, FORK_MERGE_SIMPLE_TOP, "orbit")
    assert code == 0
    assert out.splitlines() == ["orbit dimensions: aut 0, unipotent 0, graded 0", "invariant under End(P): yes"]


def test_stability_command_verdict(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, KRONECKER_F3, "stability")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta = (-1, 1), d = (2, 2), theta(d) = 0"
    assert lines[1] == "verdict: SemistableNotStable"


A3_ZERO_MIDDLE = """\
quiver {
  vertices: 1 2 3;
  arrows: a: 1 -> 2, b: 2 -> 3;
}
algebra {
  field: F2;
  max_len: 3;
  relations: [1*b*a];
}
module { d: (1, 0, 1); }
weight { theta: (1, 0, -1); }
"""


def test_stability_of_a_module_zero_at_a_middle_vertex(tmp_path, capsys):
    # the relation b*a runs through vertex 2, where the module is zero
    code, out, _ = run_cli(tmp_path, capsys, A3_ZERO_MIDDLE, "stability")
    assert code == 0
    assert out.splitlines() == ["theta = (1, 0, -1), d = (1, 0, 1), theta(d) = 0", "verdict: Unstable"]


def test_stable_factors_command_splits_the_pair(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, KRONECKER_F3, "stable-factors")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 stable factors for theta = (-1, 1)"
    assert "  factor 1: d = (1, 1)" in lines
    assert "  factor 2: d = (1, 1)" in lines


def test_limit_command_lands_on_the_expected_point(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "limit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "direction: 1 * (z1 -> a*z1)"
    assert "  [0, 0, 0, 1]" in lines
    assert "moved: yes, idempotent: yes" in lines


def test_moduli_report_flags_the_moved_point(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "moduli-report")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: NoCoarse (exhaustive: no)"
    assert lines[1] == (
        "reason: point on chart {z1, a*z1, b*a*z1} at (c1=0) is moved by the "
        "endomorphism z1 -> a*z1"
    )
    assert "witness endo: z1 -> a*z1" in lines


def test_maxdeg_sweep_over_f3_is_exhaustive(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, LOOP_BRIDGE, "maxdeg-test", "--field", "F3"
    )
    assert code == 0
    lines = out.splitlines()
    assert "1 maximal point (exhaustive sweep)" in lines
    assert "    [0, 0, 0, 1]" in lines
    assert "    witness: z1 -> a*z1" in lines


def test_the_hom_order_filter_drops_points_the_base_point_does_not_dominate(tmp_path, capsys, monkeypatch):
    # the sweep of d (1, 1, 0) keeps three points; with the base point M =
    # P/C, only the points whose quotient N has dim Hom(X, M) <= dim Hom(X, N)
    # for every test module X are kept, here C itself
    without_base = FORK_MERGE_SIMPLE_TOP.replace("point  { generators: [(1*b).z1]; }\n", "")
    code, out, _ = run_cli(tmp_path, capsys, without_base, "maxdeg-test")
    assert code == 0
    assert out.splitlines()[0] == "3 maximal points (exhaustive sweep)"
    kept = []
    real = degeneration.hom_order_leq

    def recording(M, N, tests=None):
        kept.append(real(M, N, tests))
        return kept[-1]

    monkeypatch.setattr(degeneration, "hom_order_leq", recording)
    code, out, _ = run_cli(tmp_path, capsys, FORK_MERGE_SIMPLE_TOP, "maxdeg-test")
    assert code == 0
    assert sorted(kept) == [False, False, True]
    assert out.splitlines()[3:] == [
        "1 maximal point (exhaustive sweep)",
        "  point with rows:",
        "    [0, 0, 1, 0]",
        "    [0, 0, 0, 1]",
    ]


def test_maxdeg_candidate_file_reports_the_hom_gap(tmp_path, capsys):
    cand = tmp_path / "candidates.qm"
    cand.write_text(MIXED_TOPS_CANDIDATES)
    path = tmp_path / "doc.qm"
    path.write_text(MIXED_TOPS)
    code = main(
        ["maxdeg-test", str(path), "--candidates", str(cand), "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["result"]["point"]["holds"] is False
    assert data["result"]["point"]["hom_dims"] == [16, 10]
    assert data["result"]["exhaustive_sweep"] is False
    assert len(data["result"]["survivors"]) == 2
    for s in data["result"]["survivors"]:
        assert s["reason"].startswith("local summands chain")


def test_the_seed_flag_is_the_seed_of_the_report(tmp_path, capsys):
    for args, seed in (([], 0), (["--seed", "5"], 5)):
        code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, "algebra-info", "--json", *args)
        assert code == 0 and json.loads(out)["seed"] == seed


KRONECKER3_Q = """\
quiver {
  vertices: 1 2;
  arrows: a1: 1 -> 2, a2: 1 -> 2, a3: 1 -> 2;
}
algebra {
  field: Q;
  max_len: 2;
}
top    { mult: (1, 1); }
dimvec { d: (1, 2); }
"""


def test_a_seeded_moduli_report_over_q_samples_its_charts_with_that_seed(tmp_path, capsys, monkeypatch):
    # over Q no chart with variables is swept, so every chart is sampled
    states = []
    real = grass._chart_points

    def recording(pres, limits, rng, pin):
        states.append(rng.getstate())
        return real(pres, limits, rng, pin)

    monkeypatch.setattr(grass, "_chart_points", recording)
    code, out, _ = run_cli(tmp_path, capsys, KRONECKER3_Q, "moduli-report", "--seed", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5
    assert (data["result"]["kind"], data["result"]["reason"]) == (
        "Unknown",
        "sampled points were all invariant but the sweep was not exhaustive",
    )
    assert len(states) > 1 and states[0] == random.Random(5).getstate()


def test_the_max_sweep_flag_refuses_a_stratum_over_its_budget(tmp_path, capsys):
    # the stratum of LOOP_BRIDGE over F3 has a chart with one variable
    args = ("maxdeg-test", "--field", "F3", "--max-sweep")
    assert run_cli(tmp_path, capsys, LOOP_BRIDGE, *args, "2") == (
        1,
        "",
        "error: chart with 1 variables exceeds the sweep budget 2\n",
    )
    code, out, _ = run_cli(tmp_path, capsys, LOOP_BRIDGE, *args, "3")
    assert code == 0 and "1 maximal point (exhaustive sweep)" in out.splitlines()


def test_reports_are_byte_identical_between_runs(tmp_path, capsys):
    first = run_cli(tmp_path, capsys, LOOP_BRIDGE, "moduli-report", "--json")
    second = run_cli(tmp_path, capsys, LOOP_BRIDGE, "moduli-report", "--json")
    assert first == second


def test_stdin_dash_reads_the_document(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(LOOP_BRIDGE))
    code = main(["algebra-info", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("algebra over Q")


# ---------------------------------------------------------------- exit codes


def test_bad_documents_exit_with_2(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys, "quiver { vertices 1 2; }", "algebra-info"
    )
    assert code == 2 and out == ""
    assert "line 1, column 19" in err

    code, out, err = run_cli(
        tmp_path,
        capsys,
        LOOP_BRIDGE.replace("[1*a*a]", "[1*c*a]"),
        "algebra-info",
    )
    assert code == 2
    assert "unknown arrow label 'c'" in err


def test_missing_blocks_exit_with_2(tmp_path, capsys):
    code, _, err = run_cli(
        tmp_path,
        capsys,
        LOOP_BRIDGE.replace("skeleton  { elems: [e1.z1, a.z1, b*a.z1]; }\n", ""),
        "chart",
    )
    assert code == 2
    assert "this command needs a skeleton block" in err



# a document with every block; each command needs some of them
_ALL_BLOCKS = """\
quiver { vertices: 1 2; arrows: a: 1 -> 1, b: 1 -> 2; }
algebra { field: Q; max_len: 3; relations: [1*a*a]; }
module { d: (1, 1); a: [[0]]; b: [[1]]; }
point { generators: [(1*b).z1]; }
weight { theta: (-1, 1); }
top { mult: (1, 0); }
dimvec { d: (2, 1); }
layering { layers: [(1, 0), (1, 0), (0, 1)]; }
skeleton { elems: [e1.z1, a.z1, b*a.z1]; }
direction { z1: (1*a).z1; }
"""

_NO_ALGEBRA = "error: line 10, column 1: the document needs an algebra block\n"


def _need(block):
    return f"error: this command needs a {block} block\n"


# per command, the blocks it needs besides the algebra, in the order it checks
# them, each with the error it exits with when that block is the first one
# missing; a group of blocks fails only when all of them are missing
MISSING_BLOCKS = {
    "algebra-info": [],
    "skeleta": [
        ("top", _need("top")),
        ("dimvec layering", "error: the skeleta command needs a dimvec or layering block\n"),
    ],
    "chart": [("top", _need("top")), ("skeleton", _need("skeleton"))],
    "point": [("top", _need("top")), ("point", _need("point"))],
    "orbit": [("top", _need("top")), ("point", _need("point"))],
    "stability": [("module", _need("module")), ("weight", _need("weight"))],
    "stable-factors": [("module", _need("module")), ("weight", _need("weight"))],
    "maxdeg-test": [
        ("top", _need("top")),
        ("point dimvec", "error: the maxdeg-test command needs a point block, "
         "a dimvec block, or a candidate list\n"),
    ],
    "limit": [("top", _need("top")), ("point", _need("point")), ("direction", _need("direction"))],
    "moduli-report": [("top", _need("top")), ("dimvec", _need("dimvec"))],
}


@pytest.mark.parametrize("command", sorted(MISSING_BLOCKS))
def test_every_command_names_the_first_missing_block(tmp_path, capsys, command):
    code, _, err = run_cli(tmp_path, capsys, _ALL_BLOCKS, command)
    assert code != 2, err
    needs = MISSING_BLOCKS[command]
    cases = [(("algebra", _NO_ALGEBRA),)] + [
        chosen for size in range(1, len(needs) + 1) for chosen in itertools.combinations(needs, size)
    ]
    for chosen in cases:
        dropped = " ".join(names for names, _ in chosen).split()
        text = "".join(
            line for line in _ALL_BLOCKS.splitlines(True) if line.split()[0] not in dropped
        )
        code, out, err = run_cli(tmp_path, capsys, text, command)
        assert (code, out, err) == (2, "", chosen[0][1]), (command, dropped)


def test_domain_errors_exit_with_1(tmp_path, capsys):
    unstable = KRONECKER_F3.replace(
        "module { d: (2, 2); a1: [[1, 0], [0, 0]]; a2: [[0, 0], [0, 1]]; }",
        "module { d: (1, 1); a1: [[0]]; a2: [[0]]; }",
    )
    code, out, err = run_cli(tmp_path, capsys, unstable, "stable-factors")
    assert code == 1 and out == ""
    assert "is unstable for" in err


# skeleton blocks of LOOP_BRIDGE that are no skeleton, with the top they are
# read against and the error of the chart command; members are checked in
# deglex order and the first that fails is reported
SKELETON_REFUSALS = [
    ("[e1.z1, a.z1, a*a.z1]", "(1, 0)", "error: a*a*z1 is not a basis element of P\n"),
    ("[e1.z1, b*a.z1]", "(1, 0)", "error: skeleton is not closed under initial subpaths at b*a*z1\n"),
    ("[e1.z1, a.z1]", "(1, 1)", "error: skeleton is missing the generator z2\n"),
    ("[a*a*a.z1, e1.z1, b*a.z1]", "(1, 0)", "error: skeleton is not closed under initial subpaths at b*a*z1\n"),
]


@pytest.mark.parametrize("elems, top, message", SKELETON_REFUSALS)
def test_the_chart_command_refuses_a_set_that_is_no_skeleton(tmp_path, capsys, elems, top, message):
    text = LOOP_BRIDGE.replace("[e1.z1, a.z1, b*a.z1]", elems).replace("mult: (1, 0)", f"mult: {top}")
    for args in ([], ["--json"]):
        assert run_cli(tmp_path, capsys, text, "chart", *args) == (1, "", message), (elems, args)


def test_unreadable_input_exits_with_1(tmp_path, capsys):
    code = main(["algebra-info", str(tmp_path / "nope.qm")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err != ""
