"""Plain-text formats for diagrams, linear combinations, and formulas.

Diagram block:

    gauss K=<int> n=<int>          (or: arrow / degenerate)
    tail=<idx> head=<idx> sign=<+|-> mark=<int>

one line per arrow, the sign field only for the gauss species.  Degenerate
diagrams list their arrows in the shrunk rotation: the fused endpoints are
the ones at positions 2n-1 and 0.

Linear combination: entries `coef=<p>/<q>` followed by one diagram block,
entries separated by `---`.  Formula file: a `formula K=<int>` header line,
then the combination over arrow diagrams; it parses to a lincomb.Formula.

Printing is deterministic (terms in canonical order), so files are
byte-reproducible and parse/print round-trips are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import ArrowDiagram, BasedDiagram, DegenerateDiagram, GaussDiagram
from .lincomb import Formula, LinComb


class ParseError(ValueError):
    def __init__(self, message, lineno):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _fields(line, lineno, names):
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ParseError("expected key=value, got %r" % tok, lineno)
        k, v = tok.split("=", 1)
        out[k] = v
    missing = [n for n in names if n not in out]
    if missing:
        raise ParseError("missing fields %s" % missing, lineno)
    return out


_SPECIES = {GaussDiagram: "gauss", ArrowDiagram: "arrow", DegenerateDiagram: "degenerate"}


def print_diagram(d):
    species = _SPECIES.get(type(d))
    if species is None:
        raise TypeError("cannot print %r" % (d,))
    lines = ["%s K=%d n=%d" % (species, d.K, d.n)]
    for t, h, m, s in d.arrows:
        if d.signed:
            lines.append("tail=%d head=%d sign=%s mark=%d" % (t, h, "+" if s > 0 else "-", m))
        else:
            lines.append("tail=%d head=%d mark=%d" % (t, h, m))
    return "\n".join(lines)


def _numbered(text):
    """The nonblank lines of text, stripped, as (file line number, line)."""
    return [(i, l) for i, l in enumerate((s.strip() for s in text.splitlines()), 1) if l]


def _parse_diagram_block(lines, start):
    """Parse one diagram block off numbered lines (see _numbered); returns
    (diagram, next line index)."""
    lineno, text = lines[start]
    species = text.split(None, 1)[0]
    if species not in ("gauss", "arrow", "degenerate"):
        raise ParseError("unknown species %r" % species, lineno)
    hf = _fields(text[len(species):], lineno, ("K", "n"))
    try:
        K, n = int(hf["K"]), int(hf["n"])
    except ValueError:
        raise ParseError("K and n must be integers", lineno)
    if n < 0:
        raise ParseError("n must be nonnegative", lineno)
    arrows = []
    i = start + 1
    for j in range(n):
        if i >= len(lines):
            raise ParseError("expected %d arrow lines, got %d" % (n, j), lines[-1][0])
        lineno, text = lines[i]
        names = ("tail", "head", "sign", "mark") if species == "gauss" else ("tail", "head", "mark")
        f = _fields(text, lineno, names)
        try:
            t, h, m = int(f["tail"]), int(f["head"]), int(f["mark"])
        except ValueError:
            raise ParseError("tail/head/mark must be integers", lineno)
        if species == "gauss":
            if f["sign"] not in ("+", "-"):
                raise ParseError("sign must be + or -", lineno)
            s = 1 if f["sign"] == "+" else -1
        else:
            s = 0
        arrows.append((t, h, m, s))
        i += 1
    if species == "gauss":
        return GaussDiagram(K, arrows), i
    if species == "arrow":
        return ArrowDiagram(K, arrows), i
    return DegenerateDiagram(BasedDiagram.from_word(K, arrows)), i


def parse_diagram(text):
    lines = _numbered(text)
    if not lines:
        raise ParseError("empty diagram", 1)
    d, i = _parse_diagram_block(lines, 0)
    if i != len(lines):
        raise ParseError("trailing content after diagram", lines[i][0])
    return d


def print_lincomb(vec):
    chunks = []
    for k in sorted(vec.keys()):
        c = Fraction(vec.coeff(k))
        chunks.append("coef=%d/%d\n%s" % (c.numerator, c.denominator, print_diagram(k)))
    return "\n---\n".join(chunks)


def _parse_terms(lines, start):
    """The entries of a linear combination from numbered line `start` on:
    [(diagram, coefficient, line number of the diagram's header)]."""
    terms = []
    i = start
    while i < len(lines):
        lineno, text = lines[i]
        if text == "---":
            i += 1
            continue
        if not text.startswith("coef="):
            raise ParseError("expected coef=<p>/<q>, got %r" % text, lineno)
        body = text[5:]
        try:
            if "/" in body:
                p, q = body.split("/", 1)
                c = Fraction(int(p), int(q))
            else:
                c = Fraction(int(body))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad coefficient %r" % body, lineno)
        at = i + 1
        if at == len(lines):
            raise ParseError("no diagram after %r" % text, lineno)
        d, i = _parse_diagram_block(lines, at)
        terms.append((d, c, lines[at][0]))
    return terms


def parse_lincomb(text):
    return LinComb([(d, c) for d, c, _lineno in _parse_terms(_numbered(text), 0)])


def print_formula(f):
    body = print_lincomb(f.vector)
    return "formula K=%d" % f.K + ("\n" + body if body else "")


def parse_formula(text):
    return _parse_formula_lines(_numbered(text))


def _parse_formula_lines(lines):
    """parse_formula off numbered lines (see _numbered)."""
    if not lines or not lines[0][1].startswith("formula"):
        raise ParseError("expected 'formula K=<int>' header", lines[0][0] if lines else 1)
    lineno, header = lines[0]
    hf = _fields(header[len("formula"):], lineno, ("K",))
    try:
        K = int(hf["K"])
    except ValueError:
        raise ParseError("K must be an integer", lineno)
    terms = _parse_terms(lines, 1)
    vec = LinComb([(d, c) for d, c, _lineno in terms])
    where = {d: at for d, _c, at in reversed(terms)}  # a term's first header line
    for k in vec.keys():
        if not isinstance(k, ArrowDiagram) or isinstance(k, GaussDiagram):
            raise ParseError("formula terms must be arrow diagrams", where[k])
        if k.K != K:
            raise ParseError("term K=%d does not match header K=%d" % (k.K, K), where[k])
    return Formula(vec, K)


def print_basis(formulas, header_extra=""):
    lines = ["basis count=%d%s" % (len(formulas), header_extra)]
    for f in formulas:
        lines.append(print_formula(f))
    return "\n".join(lines) + "\n"


def parse_basis(text):
    """Formulas of a basis file; the header's count must match, so a
    truncated file is an error rather than a shorter basis."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("basis"):
        raise ParseError("expected basis header", 1)
    hf = _fields(lines[0][len("basis"):], 1, ("count",))
    try:
        count = int(hf["count"])
    except ValueError:
        raise ParseError("count must be an integer", 1)
    blocks = []
    for entry in _numbered(text)[1:]:
        if entry[1].startswith("formula"):
            blocks.append([entry])
        elif blocks:
            blocks[-1].append(entry)
        else:
            raise ParseError("content before first formula", entry[0])
    if len(blocks) != count:
        raise ParseError("header says count=%d, found %d formulas" % (count, len(blocks)), 1)
    return [_parse_formula_lines(b) for b in blocks]
