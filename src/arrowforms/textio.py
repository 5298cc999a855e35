"""Plain-text formats for diagrams, linear combinations, and formulas.

Diagram block:

    gauss K=<int> n=<int>          (or: arrow / degenerate)
    tail=<idx> head=<idx> sign=<+|-> mark=<int>

one line per arrow, the sign field only for the gauss species.  Degenerate
diagrams list their arrows in the shrunk rotation: the fused endpoints are
the ones at positions 2n-1 and 0.

Linear combination: entries `coef=<p>/<q>` followed by one diagram block,
entries separated by `---`.  Formula file: a `formula K=<int>` header line,
then the combination over arrow diagrams.

Printing is deterministic (terms in canonical order), so files are
byte-reproducible and parse/print round-trips are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import ArrowDiagram, BasedDiagram, DegenerateDiagram, GaussDiagram


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


def print_diagram(d):
    if isinstance(d, DegenerateDiagram):
        species = "degenerate"
        arrows = d.word()
        signed = False
    elif isinstance(d, GaussDiagram):
        species, arrows, signed = "gauss", d.arrows, True
    elif isinstance(d, ArrowDiagram):
        species, arrows, signed = "arrow", d.arrows, False
    else:
        raise TypeError("cannot print %r" % (d,))
    lines = ["%s K=%d n=%d" % (species, d.K, d.n)]
    for t, h, m, s in arrows:
        if signed:
            lines.append("tail=%d head=%d sign=%s mark=%d" % (t, h, "+" if s > 0 else "-", m))
        else:
            lines.append("tail=%d head=%d mark=%d" % (t, h, m))
    return "\n".join(lines)


def _parse_diagram_block(lines, start):
    """Parse one diagram block; returns (diagram, next line index)."""
    lineno = start + 1
    header = lines[start].split(None, 1)
    species = header[0]
    if species not in ("gauss", "arrow", "degenerate"):
        raise ParseError("unknown species %r" % species, lineno)
    hf = _fields(lines[start][len(species):], lineno, ("K", "n"))
    try:
        K, n = int(hf["K"]), int(hf["n"])
    except ValueError:
        raise ParseError("K and n must be integers", lineno)
    arrows = []
    i = start + 1
    for j in range(n):
        if i >= len(lines):
            raise ParseError("expected %d arrow lines, got %d" % (n, j), len(lines))
        names = ("tail", "head", "sign", "mark") if species == "gauss" else ("tail", "head", "mark")
        f = _fields(lines[i], i + 1, names)
        try:
            t, h, m = int(f["tail"]), int(f["head"]), int(f["mark"])
        except ValueError:
            raise ParseError("tail/head/mark must be integers", i + 1)
        if species == "gauss":
            if f["sign"] not in ("+", "-"):
                raise ParseError("sign must be + or -", i + 1)
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
    lines = [l for l in (s.strip() for s in text.splitlines()) if l]
    if not lines:
        raise ParseError("empty diagram", 1)
    d, i = _parse_diagram_block(lines, 0)
    if i != len(lines):
        raise ParseError("trailing content after diagram", i + 1)
    return d


def print_lincomb(vec):
    chunks = []
    for k in sorted(vec.keys()):
        c = Fraction(vec.coeff(k))
        chunks.append("coef=%d/%d\n%s" % (c.numerator, c.denominator, print_diagram(k)))
    return "\n---\n".join(chunks)


def parse_lincomb(text, _lines=None, _start=0):
    from .lincomb import LinComb

    lines = _lines if _lines is not None else [
        l for l in (s.strip() for s in text.splitlines()) if l
    ]
    terms = []
    i = _start
    while i < len(lines):
        if lines[i] == "---":
            i += 1
            continue
        if not lines[i].startswith("coef="):
            raise ParseError("expected coef=<p>/<q>, got %r" % lines[i], i + 1)
        body = lines[i][5:]
        try:
            if "/" in body:
                p, q = body.split("/", 1)
                c = Fraction(int(p), int(q))
            else:
                c = Fraction(int(body))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad coefficient %r" % body, i + 1)
        d, i = _parse_diagram_block(lines, i + 1)
        terms.append((d, c))
    return LinComb(terms)


def print_formula(f):
    body = print_lincomb(f.vector)
    return "formula K=%d" % f.K + ("\n" + body if body else "")


def parse_formula(text):
    from .engine import Formula

    lines = [l for l in (s.strip() for s in text.splitlines()) if l]
    if not lines or not lines[0].startswith("formula"):
        raise ParseError("expected 'formula K=<int>' header", 1)
    hf = _fields(lines[0][len("formula"):], 1, ("K",))
    try:
        K = int(hf["K"])
    except ValueError:
        raise ParseError("K must be an integer", 1)
    vec = parse_lincomb(None, _lines=lines, _start=1)
    for k in vec.keys():
        if not isinstance(k, ArrowDiagram) or isinstance(k, GaussDiagram):
            raise ParseError("formula terms must be arrow diagrams", 1)
        if k.K != K:
            raise ParseError("term K=%d does not match header K=%d" % (k.K, K), 1)
    return Formula(vec, K, provenance="file")


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
    current = None
    for l in lines[1:]:
        l = l.strip()
        if not l:
            continue
        if l.startswith("formula"):
            if current is not None:
                blocks.append(current)
            current = [l]
        elif current is not None:
            current.append(l)
        else:
            raise ParseError("content before first formula", 2)
    if current is not None:
        blocks.append(current)
    if len(blocks) != count:
        raise ParseError("header says count=%d, found %d formulas" % (count, len(blocks)), 1)
    return [parse_formula("\n".join(b)) for b in blocks]
