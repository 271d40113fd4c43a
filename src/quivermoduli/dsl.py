"""Text input documents: quivers, algebras, modules, and Grassmannian data.

A document is a sequence of named blocks; the quiver block comes first and
declares the labels every later block may use:

    quiver {
      vertices: 1 2;
      arrows: a: 1 -> 1, b: 1 -> 2;
    }
    algebra {
      field: Q;                     # or F2, F3, ...
      max_len: 3;
      relations: [1*a*a];
    }
    module    { d: (1, 1); a: [[0]]; b: [[1]]; }
    point     { generators: [(1*b - 2*b*a).z1]; }
    weight    { theta: (-1, 1); }
    top       { mult: (1, 0); }
    dimvec    { d: (2, 1); }
    layering  { layers: [(1, 0), (1, 0), (0, 1)]; }
    skeleton  { elems: [e1.z1, a.z1, b*a.z1]; }
    direction { z1: (1*a).z1; }

Paths compose right to left ("b*a" means first a, then b), with "." accepted
as a synonym for "*"; e<v> names the length-zero path at vertex v. Point
generators are linear combinations of paths applied to the cover generators
z1, z2, ...; a generator mixing copies is a sum of such terms. In skeleton
elements the final ".z<r>" is always read as the copy marker, never as a
path component. Whitespace is free-form, "#" starts a comment, and every
block except point appears at most once; repeated point blocks form a list.

Each grammar shape is one method of _Parser: sign (an optional leading
"-"), listed ("[" item ("," item)* "]"), entry_block ("{" key ":" value
";" "}"), entries ("{" (key ":" value ";")* "}"), signed_terms (["-"] term
(("+" | "-") term)*, for linear combinations and point generators) and
path_tokens (ident (("*" | ".") ident)*). The table _BLOCKS picks each
block's parser; the quiver block, matrices and the direction block (which
checks a key before its ":") keep shapes of their own.

parse_input checks label references, composability, and shapes, reporting
positions as "line L, column C"; a token carries only its offset, which
_where turns into that form when an error is raised. Paths are parsed
straight into PathWords, the algebra's own type, and the builders at the
bottom turn a parsed document into live algebra and module objects.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, TypeVar

from .algebra import Algebra, build_algebra
from .errors import TypeMismatch, UnknownLabel
from .fields import Field, parse_field_name
from .grass import (
    EndoSpace,
    ProjectiveCover,
    Skeleton,
    SubmodulePoint,
    describe_endo,
    make_skeleton,
    point_from_generators,
)
from .linalg import Map, fold
from .quiver import Element, PathWord, idempotent, make_quiver
from .reps import Rep, rep_validate

# -- document shape -----------------------------------------------------------


@dataclass(frozen=True)
class PathTerm:
    coeff: Fraction
    ref: PathWord


Lincomb = tuple[PathTerm, ...]


@dataclass(frozen=True)
class GenPart:
    """One summand (lincomb).z<copy> of a point generator; copy is 1-based."""

    terms: Lincomb
    copy: int


Generator = tuple[GenPart, ...]
PointBlock = tuple[Generator, ...]


@dataclass(frozen=True)
class SkelElem:
    ref: PathWord
    copy: int


@dataclass(frozen=True)
class ModuleBlock:
    d: tuple[int, ...]
    mats: tuple[tuple[str, tuple[tuple[Fraction, ...], ...]], ...]


@dataclass(frozen=True)
class InputDocument:
    vertices: tuple[int, ...]
    arrows: tuple[tuple[str, int, int], ...]
    field: str
    max_len: int
    relations: tuple[Lincomb, ...]
    module: ModuleBlock | None = None
    points: tuple[PointBlock, ...] = ()
    weight: tuple[int, ...] | None = None
    top: tuple[int, ...] | None = None
    d: tuple[int, ...] | None = None
    layering: tuple[tuple[int, ...], ...] | None = None
    skeleton: tuple[SkelElem, ...] | None = None
    direction: tuple[tuple[int, Generator], ...] | None = None


# -- tokens -------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # ident, int, punct, eof
    text: str
    pos: int  # offset into the parsed text


_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|[{}()\[\]:;,*+\-./])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _where(text: str, pos: int) -> str:
    """The offset pos of text as "line L, column C", both from 1."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return f"line {line}, column {column}"


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise SyntaxError(f"{_where(text, m.start())}: unexpected character {m.group()!r}")
        if kind != "skip":
            toks.append(Token(kind, m.group(), m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


# -- parser -------------------------------------------------------------------

T = TypeVar("T")
_COPY_RE = re.compile(r"^z([1-9]\d*)$")
_IDEM_RE = re.compile(r"^e([1-9]\d*)$")


class _Parser:
    def __init__(self, text: str, known: InputDocument | None = None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        if known is None:
            self.vertices: tuple[int, ...] = ()
            self.arrows: dict[str, tuple[int, int]] = {}
        else:
            self.vertices = known.vertices
            self.arrows = {lbl: (s, e) for lbl, s, e in known.arrows}

    # token plumbing

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def fail(self, msg: str, tok: Token | None = None) -> None:
        t = tok or self.peek()
        raise SyntaxError(f"{_where(self.text, t.pos)}: {msg}")

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.kind == "eof" or t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}" if t.kind != "eof" else f"expected {text!r}, found end of input")
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind}, found {t.text!r}")
        return self.advance()

    def bad_label(self, msg: str, tok: Token) -> None:
        raise UnknownLabel(f"{_where(self.text, tok.pos)}: {msg}")

    def bad_type(self, msg: str, tok: Token) -> None:
        raise TypeMismatch(f"{_where(self.text, tok.pos)}: {msg}")

    # grammar shapes

    def sign(self) -> int:
        """An optional leading "-": -1 if present, else 1."""
        if self.at("-"):
            self.advance()
            return -1
        return 1

    def listed(self, item: Callable[[], T], empty: bool = False) -> tuple[T, ...]:
        """"[" item ("," item)* "]", or "[]" when empty is allowed."""
        self.expect("[")
        out = [] if empty and self.at("]") else [item()]
        while self.at(","):
            self.advance()
            out.append(item())
        self.expect("]")
        return tuple(out)

    def entry_block(self, key: str, value: Callable[[Token], T]) -> T:
        """"{" key ":" value ";" "}"; value gets the key token for positions."""
        self.expect("{")
        tok = self.expect(key)
        self.expect(":")
        out = value(tok)
        self.expect(";")
        self.expect("}")
        return out

    def entries(self, entry: Callable[[Token], None]) -> None:
        """"{" (ident ":" entry ";")* "}"; entry gets the key token."""
        self.expect("{")
        while not self.at("}"):
            key = self.expect_kind("ident")
            self.expect(":")
            entry(key)
            self.expect(";")
        self.expect("}")

    def signed_terms(self, term: Callable[[int], T]) -> tuple[T, ...]:
        """["-"] term (("+" | "-") term)*; term gets its sign, 1 or -1."""
        out = [term(self.sign())]
        while self.at("+") or self.at("-"):
            out.append(term(1 if self.advance().text == "+" else -1))
        return tuple(out)

    def path_tokens(self) -> list[Token]:
        """ident (("*" | ".") ident)*, separators kept at the odd places."""
        toks = [self.expect_kind("ident")]
        while self.at("*") or self.at("."):
            toks += [self.advance(), self.expect_kind("ident")]
        return toks

    # scalars and tuples

    def parse_int(self) -> int:
        return self.sign() * int(self.expect_kind("int").text)

    def parse_fraction(self) -> Fraction:
        num = self.parse_int()
        if self.at("/"):
            self.advance()
            den = int(self.expect_kind("int").text)
            if den == 0:
                self.fail("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_tuple(self) -> tuple[int, ...]:
        self.expect("(")
        out = [self.parse_int()]
        while self.at(","):
            self.advance()
            if self.at(")"):
                break
            out.append(self.parse_int())
        self.expect(")")
        return tuple(out)

    def vertex_tuple(self, tok: Token) -> tuple[int, ...]:
        t = self.parse_tuple()
        if len(t) != len(self.vertices):
            self.bad_type(
                f"expected {len(self.vertices)} entries, one per vertex, got {len(t)}",
                tok,
            )
        return t

    # paths and linear combinations

    def check_path(self, toks: list[Token]) -> PathWord:
        """The path of a path_tokens list, once its component labels and
        their composability are checked; text order is composition order,
        so each component is applied after the one to its right."""
        comps = toks[::2]
        first = comps[0]
        if len(comps) == 1:
            m = _IDEM_RE.match(first.text)
            if m and first.text not in self.arrows:
                v = int(m.group(1))
                if v not in self.vertices:
                    self.bad_label(f"idempotent of undeclared vertex {v}", first)
                return idempotent(v)
        for tok in comps:
            if tok.text not in self.arrows:
                if _IDEM_RE.match(tok.text):
                    self.bad_type(
                        f"idempotent {tok.text} cannot be composed with arrows", tok
                    )
                self.bad_label(f"unknown arrow label {tok.text!r}", tok)
        for later, earlier in zip(comps, comps[1:]):
            if self.arrows[later.text][0] != self.arrows[earlier.text][1]:
                self.bad_type(
                    f"path does not compose: {later.text} cannot follow {earlier.text}",
                    later,
                )
        arrows = tuple(t.text for t in reversed(comps))  # application order
        return PathWord(self.arrows[arrows[0]][0], arrows, self.arrows[arrows[-1]][1])

    def path_term(self, sign: int) -> PathTerm:
        coeff = Fraction(1)
        if self.peek().kind == "int":
            coeff = self.parse_fraction()
            self.expect("*")
        return PathTerm(sign * coeff, self.check_path(self.path_tokens()))

    def parse_lincomb(self) -> Lincomb:
        return self.signed_terms(self.path_term)

    def gen_part(self, sign: int) -> GenPart:
        self.expect("(")
        terms = self.parse_lincomb()
        self.expect(")")
        self.expect(".")
        tok = self.expect_kind("ident")
        m = _COPY_RE.match(tok.text)
        if not m:
            self.fail(f"expected a copy marker z<r>, found {tok.text!r}", tok)
        return GenPart(tuple(PathTerm(sign * t.coeff, t.ref) for t in terms), int(m.group(1)))

    def parse_generator(self) -> Generator:
        return self.signed_terms(self.gen_part)

    def parse_skel_elem(self) -> SkelElem:
        toks = self.path_tokens()
        last = toks[-1]
        if len(toks) < 3 or toks[-2].text != "." or not _COPY_RE.match(last.text):
            self.fail("skeleton element needs a trailing .z<r> copy marker", last)
        copy = int(_COPY_RE.match(last.text).group(1))
        return SkelElem(self.check_path(toks[:-2]), copy)

    # blocks

    def parse_quiver_block(self) -> tuple[tuple[int, ...], tuple[tuple[str, int, int], ...]]:
        self.expect("{")
        self.expect("vertices")
        self.expect(":")
        verts = [int(self.expect_kind("int").text)]
        while self.peek().kind == "int":
            verts.append(int(self.advance().text))
        self.expect(";")
        if tuple(verts) != tuple(range(1, len(verts) + 1)):
            raise TypeMismatch(
                f"vertices must be declared as 1..n in order, got {tuple(verts)}"
            )
        self.vertices = tuple(verts)
        arrows: list[tuple[str, int, int]] = []
        if self.at("arrows"):
            self.advance()
            self.expect(":")
            while True:
                lbl = self.expect_kind("ident")
                if lbl.text in self.arrows:
                    self.bad_type(f"arrow label {lbl.text!r} declared twice", lbl)
                self.expect(":")
                s = self.parse_int()
                self.expect("->")
                e = self.parse_int()
                for v in (s, e):
                    if v not in self.vertices:
                        self.bad_label(
                            f"arrow {lbl.text} uses undeclared vertex {v}", lbl
                        )
                arrows.append((lbl.text, s, e))
                self.arrows[lbl.text] = (s, e)
                if self.at(","):
                    self.advance()
                    continue
                break
            self.expect(";")
        self.expect("}")
        return self.vertices, tuple(arrows)

    def parse_algebra_block(self) -> tuple[str, int, tuple[Lincomb, ...]]:
        field, max_len, relations = "Q", None, ()

        def entry(key: Token) -> None:
            nonlocal field, max_len, relations
            if key.text == "field":
                tok = self.expect_kind("ident")
                try:
                    field = str(parse_field_name(tok.text))
                except ValueError as err:
                    self.bad_type(str(err), tok)
            elif key.text == "max_len":
                max_len = self.parse_int()
            elif key.text == "relations":
                relations = self.listed(self.parse_lincomb, empty=True)
            else:
                self.fail(f"unknown algebra entry {key.text!r}", key)

        self.entries(entry)
        if max_len is None:
            self.fail("algebra block needs max_len")
        return field, max_len, relations

    def parse_module_block(self) -> ModuleBlock:
        d: tuple[int, ...] | None = None
        mats: dict[str, tuple[tuple[Fraction, ...], ...]] = {}
        keys: list[Token] = []

        def entry(key: Token) -> None:
            nonlocal d
            if key.text == "d":
                d = self.vertex_tuple(key)
                return
            if key.text not in self.arrows:
                self.bad_label(f"unknown arrow label {key.text!r}", key)
            if key.text in mats:
                self.bad_type(f"matrix for arrow {key.text!r} given twice", key)
            mats[key.text] = self.parse_matrix()
            keys.append(key)

        self.entries(entry)
        if d is None:
            self.fail("module block needs a dimension vector d")
        for key in keys:
            s, e = self.arrows[key.text]
            rows = mats[key.text]
            want_r, want_c = d[e - 1], d[s - 1]
            if len(rows) != want_r or any(len(r) != want_c for r in rows):
                self.bad_type(f"matrix for {key.text} must be {want_r}x{want_c}", key)
        order = [lbl for lbl in self.arrows if lbl in mats]
        return ModuleBlock(d, tuple((lbl, mats[lbl]) for lbl in order))

    def parse_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        self.expect("[")
        rows: list[tuple[Fraction, ...]] = []
        while not self.at("]"):
            self.expect("[")
            row: list[Fraction] = []
            while not self.at("]"):
                row.append(self.parse_fraction())
                if self.at(","):
                    self.advance()
            self.expect("]")
            rows.append(tuple(row))
            if self.at(","):
                self.advance()
        self.expect("]")
        return tuple(rows)

    def parse_direction_block(self) -> tuple[tuple[int, Generator], ...]:
        # its own loop: a key is checked before its ":"
        self.expect("{")
        out: dict[int, Generator] = {}
        while not self.at("}"):
            tok = self.expect_kind("ident")
            m = _COPY_RE.match(tok.text)
            if not m:
                self.fail(f"expected a generator key z<r>, found {tok.text!r}", tok)
            r = int(m.group(1))
            if r in out:
                self.bad_type(f"direction for z{r} given twice", tok)
            self.expect(":")
            out[r] = self.parse_generator()
            self.expect(";")
        self.expect("}")
        return tuple(sorted(out.items()))

    # documents

    def parse_document(self) -> InputDocument:
        head = self.expect_kind("ident")
        if head.text != "quiver":
            self.fail("the document must start with a quiver block", head)
        got: dict[str, object] = {"quiver": self.parse_quiver_block()}
        points: list[PointBlock] = []
        while self.peek().kind != "eof":
            head = self.expect_kind("ident")
            name = head.text
            if name not in _BLOCKS:
                self.fail(f"unknown block {name!r}", head)
            if name == "point":
                points.append(_BLOCKS[name](self))
                continue
            if name in got:
                self.fail(f"duplicate {name} block", head)
            got[name] = _BLOCKS[name](self)
        if "algebra" not in got:
            self.fail("the document needs an algebra block")
        (vertices, arrows), (field, max_len, relations) = got["quiver"], got["algebra"]
        return InputDocument(
            vertices, arrows, field, max_len, relations, got.get("module"),
            tuple(points), got.get("weight"), got.get("top"), got.get("dimvec"),
            got.get("layering"), got.get("skeleton"), got.get("direction"),
        )  # fmt: skip

    def parse_point_list(self) -> tuple[PointBlock, ...]:
        points: list[PointBlock] = []
        while self.peek().kind != "eof":
            head = self.expect_kind("ident")
            if head.text != "point":
                self.fail("a candidate file may contain only point blocks", head)
            points.append(_BLOCKS["point"](self))
        if not points:
            self.fail("the candidate file has no point blocks")
        return tuple(points)


# block name -> its parser; every block but quiver and point appears at most once
_BLOCKS: dict[str, Callable[[_Parser], object]] = {
    "quiver": _Parser.parse_quiver_block,
    "algebra": _Parser.parse_algebra_block,
    "module": _Parser.parse_module_block,
    "point": lambda p: p.entry_block("generators", lambda _: p.listed(p.parse_generator)),
    "weight": lambda p: p.entry_block("theta", p.vertex_tuple),
    "top": lambda p: p.entry_block("mult", p.vertex_tuple),
    "dimvec": lambda p: p.entry_block("d", p.vertex_tuple),
    "layering": lambda p: p.entry_block(
        "layers", lambda tok: p.listed(lambda: p.vertex_tuple(tok))
    ),
    "skeleton": lambda p: p.entry_block("elems", lambda _: p.listed(p.parse_skel_elem)),
    "direction": _Parser.parse_direction_block,
}


def parse_input(text: str) -> InputDocument:
    """Parse a full document; positions in errors refer to the given text."""
    return _Parser(text).parse_document()


def parse_points(text: str, doc: InputDocument) -> tuple[PointBlock, ...]:
    """Parse a file of point blocks against the labels declared by doc."""
    return _Parser(text, known=doc).parse_point_list()


# -- builders -----------------------------------------------------------------


def need(value: T | None, block: str) -> T:
    """The value of a document block a command needs; TypeMismatch if the
    block is missing."""
    if value is None:
        raise TypeMismatch(f"this command needs a {block} block")
    return value


def element_of(field: Field, terms: Lincomb) -> Element:
    out = Element()
    for t in terms:
        field.axpy(out.terms, field.of_fraction(t.coeff), {t.ref: field.one()})
    return out


def doc_algebra(doc: InputDocument, field: Field | None = None) -> Algebra:
    if field is None:
        field = parse_field_name(doc.field)
    rels = [element_of(field, r) for r in doc.relations]
    return build_algebra(make_quiver(len(doc.vertices), doc.arrows), rels, field, doc.max_len)


def doc_module(doc: InputDocument, alg: Algebra) -> Rep:
    """The module block as a Rep: each matrix, whose shape the parser has
    checked, is written column by column into its arrow's Map; an arrow
    with no matrix acts by zero. TypeMismatch when the relations fail."""
    module = need(doc.module, "module")
    f = alg.field
    mats = dict(module.mats)
    offset = [sum(module.d[:i]) for i in range(len(module.d))]
    arrows: dict[str, Map] = {}
    for a in alg.quiver.arrows:
        col0, row0 = offset[a.start - 1], offset[a.end - 1]
        arrows[a.label] = {
            col0 + t: img
            for t, col in enumerate(zip(*mats.get(a.label, ())))
            if (img := {row0 + i: y for i, x in enumerate(col) if not f.is_zero(y := f.of_fraction(x))})
        }
    M = Rep(alg, module.d, arrows)
    if not rep_validate(alg, M):
        raise TypeMismatch("module matrices do not satisfy the algebra relations")
    return M


def _copy_index(P: ProjectiveCover, copy: int) -> int:
    """The index r of the generator z<copy> = z_(r+1) of the cover."""
    if not 1 <= copy <= len(P.gens):
        raise TypeMismatch(
            f"generator z{copy} does not exist: the cover has "
            f"{len(P.gens)} summands"
        )
    return copy - 1


def _gen_pairs(P: ProjectiveCover, gen: Generator) -> list[tuple[Element, int]]:
    pairs = []
    for part in gen:
        r = _copy_index(P, part.copy)
        pairs.append((element_of(P.alg.field, part.terms), r))
    return pairs


def doc_point(P: ProjectiveCover, block: PointBlock) -> SubmodulePoint:
    gens = [_gen_pairs(P, g) for g in block]
    return point_from_generators(P, gens)


def doc_skeleton(P: ProjectiveCover, doc: InputDocument) -> Skeleton:
    elems = [(e.ref, _copy_index(P, e.copy)) for e in need(doc.skeleton, "skeleton")]
    return make_skeleton(P, elems)


def doc_direction(P: ProjectiveCover, endo: EndoSpace, doc: InputDocument) -> list:
    """The coefficients in endo's basis of the direction block. A term
    u*z_s given for z_r must run from the vertex of z_s to that of z_r
    (TypeMismatch otherwise); it is folded from z_s's position through P's
    arrow Maps, and each position i of the image is the basis map
    endo.index[r, i]."""
    f = P.alg.field
    one = f.one()
    coeffs = [f.zero()] * endo.dim
    for copy, gen in need(doc.direction, "direction"):
        r = _copy_index(P, copy)
        for x, s in _gen_pairs(P, gen):
            for u, c in x.terms.items():
                if (u.start, u.end) != (P.gens[s], P.gens[r]):
                    raise TypeMismatch(f"{describe_endo((r, s, u))} is not an endomorphism of the cover")
                for i, y in fold(f, P.rep.arrows, {P.index[idempotent(u.start), s]: one}, u.arrows).items():
                    j = endo.index[r, i]
                    coeffs[j] = f.add(coeffs[j], f.mul(c, y))
    return coeffs
