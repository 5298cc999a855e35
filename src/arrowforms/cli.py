"""Command-line front end.

Subcommands: enumerate, solve, check, boundary, eval, verify, gv, selftest.
Each takes only those of the shared flags (_FLAGS) that its handler reads;
any other flag is a usage error with exit code 2, reported by the
subcommand's own parser.  All outputs are
deterministic given --seed; files use the plain-text formats of the textio
module.  Exit code 0 means success / all checks passed; a nonzero exit
carries a diagnostic naming the first failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache

from . import engine, textio
from .boundary import boundary_d
from .diagrams import DiagramError, GaussDiagram, canonical_arrows
from .lincomb import Formula
from .maps import pair_norm, sign_expand_S, subdiagram_expand_I
from .relations import CONSTRAINT_FAMILIES, MarkingWindow, check_I_span_compat, enumerate_diagrams

CACHE_ENV = "ARROWFORMS_CACHE_DIR"


class CliError(Exception):
    pass


def _window(args, K):
    if K is None:
        raise CliError("--K is required")
    if args.markings is None:
        raise CliError("--markings is required (lo..hi or a comma list)")
    try:
        return MarkingWindow.parse(args.markings, K)
    except ValueError as e:
        raise CliError("bad --markings value: %s" % e)


def _nonnegative(value, flag):
    if value < 0:
        raise CliError("%s must be nonnegative, got %d" % (flag, value))
    return value


def _cache_dir(args):
    return args.cache_dir or os.environ.get(CACHE_ENV) or None


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e))


def _load_formula(path):
    return textio.parse_formula(_read(path))


def _load_gauss(path):
    d = textio.parse_diagram(_read(path))
    if not isinstance(d, GaussDiagram):
        raise CliError("%s: expected a gauss diagram" % path)
    return d


def _solve(n, window, args):
    try:
        return engine.solve_formula_space(n, window, cache_dir=_cache_dir(args))
    except OSError as e:
        raise CliError("cannot write the solver cache: %s" % e)


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise CliError(str(e))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_enumerate(args):
    if args.species not in ("gauss", "arrow"):
        raise CliError("--species must be gauss or arrow")
    w = _window(args, args.K)
    n = _nonnegative(args.degree, "--degree")
    engine.guard_enumeration(args.species, n, w)
    ds = enumerate_diagrams(args.species, n, w)
    lines = ["count=%d" % len(ds)]
    for d in ds:
        lines.append("aut=%d" % d.aut_order())
        lines.append(textio.print_diagram(d))
        lines.append("---")
    _emit("\n".join(lines), args.output)
    return 0


def cmd_solve(args):
    w = _window(args, args.K)
    basis = _solve(_nonnegative(args.degree, "--degree"), w, args)
    header = " degree=%d K=%d markings=%s" % (
        args.degree, w.K, ",".join(str(v) for v in w.values()),
    )
    _emit(textio.print_basis(basis, header_extra=header), args.output)
    print("dimension=%d" % len(basis), file=sys.stderr)
    return 0


def cmd_check(args):
    f = _load_formula(args.formula)
    w = _window(args, f.K)
    report = engine.check_formula(f, w)
    for fam in CONSTRAINT_FAMILIES:
        print("%s max |pairing| = %s" % (fam, report["families"][fam]))
    print("boundary zero = %s" % str(report["boundary_zero"]).lower())
    print("consistent = %s" % str(report["consistent"]).lower())
    print("passes = %s" % str(report["passes"]).lower())
    if report["passes"]:
        return 0
    hit = report["first_nonzero"]
    if hit is not None:
        print(
            "first failing instance: family=%s degree=%d index=%d"
            % (hit["family"], hit["degree"], hit["index"]),
            file=sys.stderr,
        )
        print(textio.print_lincomb(hit["instance"].vector), file=sys.stderr)
    else:
        print("failure: boundary is nonzero", file=sys.stderr)
    return 1


def cmd_boundary(args):
    f = _load_formula(args.formula)
    if args.markings is not None:
        w = _window(args, f.K)
    else:
        marks = f.markings()
        w = MarkingWindow(set(marks) | {0, f.K}, f.K)
    d = boundary_d(f.vector, engine.normalization_window(w))
    body = textio.print_lincomb(d)
    out = (body + "\n" if body else "") + ("zero=%s" % str(not d).lower())
    _emit(out, args.output)
    return 0


def cmd_eval(args):
    f = _load_formula(args.formula)
    g = _load_gauss(args.knot)
    v = Fraction(engine.evaluate(f, g))
    print("value=%d/%d" % (v.numerator, v.denominator))
    return 0


def cmd_verify(args):
    f = _load_formula(args.formula)
    g = _load_gauss(args.knot)
    marking_set = None if args.markings is None else set(_window(args, f.K).allowed)
    report = engine.verify_invariance(
        f, g, trials=_nonnegative(args.trials, "--trials"),
        walk_length=_nonnegative(args.walk_length, "--walk-length"),
        seed=args.seed, marking_set=marking_set,
    )
    v = Fraction(report["value"])
    print("value=%d/%d" % (v.numerator, v.denominator))
    print("trials=%d walk_length=%d" % (report["trials"], report["walk_length"]))
    print("constant=%s" % str(report["constant"]).lower())
    if report["constant"]:
        return 0
    vi = report["violation"]
    print(
        "violation: trial=%d step=%d move=%r" % (vi["trial"], vi["step"], vi["move"]),
        file=sys.stderr,
    )
    return 1


def cmd_gv(args):
    try:
        gamma = tuple(int(t) for t in args.gamma.split(","))
    except ValueError:
        raise CliError("--gamma expects a comma list of nonzero integers")
    try:
        f = engine.gv_formula(len(gamma) - 1, gamma)
    except ValueError as e:
        raise CliError(str(e))
    _emit(textio.print_formula(f), args.output)
    print("terms=%d K=%d" % (len(f.vector), f.K), file=sys.stderr)
    return 0


def cmd_selftest(args):
    """Small deterministic battery touching every layer; < 1 minute."""
    rng = random.Random(args.seed)
    failures = []

    def step(name, ok):
        print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failures.append(name)

    # canonicalization is idempotent and rotation invariant
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        pos = list(range(2 * n))
        rng.shuffle(pos)
        arrows = [
            (pos[2 * i], pos[2 * i + 1], rng.randint(-2, 3), rng.choice((1, -1)))
            for i in range(n)
        ]
        d = GaussDiagram(rng.randint(-2, 4), arrows)
        if canonical_arrows(n, d.arrows)[0] != d.arrows:
            ok = False
        r = rng.randrange(2 * n)
        rot = [((t + r) % (2 * n), (h + r) % (2 * n), m, s) for (t, h, m, s) in arrows]
        if GaussDiagram(d.K, rot) != d:
            ok = False
    step("canonical form: idempotent and rotation invariant", ok)

    # bracket identity <<A, G>> = <S(A), I(G)>, <<A, G>> by engine.evaluate,
    # on random pairs: degree-2 arrow diagrams against degree 3-4 knots
    w = MarkingWindow(range(0, 3), 2)
    arrs = enumerate_diagrams("arrow", 2, w)
    ok = True
    for _ in range(50):
        n = rng.randint(3, 4)
        ends = rng.sample(range(2 * n), 2 * n)
        g = GaussDiagram(w.K, [(t, h, rng.randint(0, 2), rng.choice((1, -1)))
                               for t, h in zip(ends[::2], ends[1::2])])
        a = rng.choice(arrs)
        bracket = pair_norm(sign_expand_S(a), subdiagram_expand_I(g))
        if engine.evaluate(Formula(a, w.K), g) != bracket:
            ok = False
    step("bracket identity on random pairs", ok)

    # file round trips
    gsss = enumerate_diagrams("gauss", 2, w)
    ok = True
    for _ in range(50):
        d = rng.choice(gsss)
        if textio.parse_diagram(textio.print_diagram(d)) != d:
            ok = False
    step("text format round trip", ok)

    # solver output passes the static checker
    w = MarkingWindow({1, 2}, 3)
    basis = _solve(2, w, args)
    ok = bool(basis) and all(engine.check_formula(f, w)["passes"] for f in basis)
    step("solver basis passes static checks (dimension %d)" % len(basis), ok)

    # planar chain formulas land in the solver kernel
    f = engine.gv_formula(2, (1, 1, 1))
    wgv = MarkingWindow({1, 2}, 3)
    ok = engine.check_formula(f, wgv)["passes"]
    step("planar chain formula passes static checks", ok)

    # I(r) of every move difference r lies in the span of the P-relations
    rep = check_I_span_compat(2, MarkingWindow(range(0, 3), 2))
    ok = rep["checked"] > 0 and not rep["failures"]
    step("Polyak span compatibility (degree 2 over 0..2 K=2)", ok)

    # a short invariance walk
    g0 = GaussDiagram(3, [(0, 2, 1, 1), (1, 3, 2, -1)])
    rep = engine.verify_invariance(basis[0], g0, trials=3, walk_length=8, seed=args.seed)
    step("random move walks keep the evaluation constant", rep["constant"])

    if failures:
        print("failed: %s" % "; ".join(failures), file=sys.stderr)
        return 1
    return 0


# The shared flags, keyed by destination: each subcommand names those its
# handler reads.
_FLAGS = {
    "K": (("--K",), dict(type=int, help="global circle marking")),
    "markings": (("--markings",), dict(help="marking window: lo..hi or a,b,c")),
    "seed": (("--seed",), dict(type=int, default=0, help="random seed")),
    "cache_dir": (("--cache-dir",), dict(help="solver cache directory (or $%s)" % CACHE_ENV)),
    "output": (("-o", "--output"), dict(help="write to file instead of stdout")),
}


@cache
def build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="arrowforms",
        description="Arrow-diagram invariants of virtual knots in the annulus.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags, *positionals):
        q = sub.add_parser(name, help=help)
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            q.add_argument(*names, **kwargs)
        for arg in positionals:
            q.add_argument(arg)
        q.set_defaults(func=func, parser=q)
        return q

    q = command("enumerate", cmd_enumerate, "list canonical diagrams", ("K", "markings", "output"))
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--species", default="arrow")
    q = command("solve", cmd_solve, "basis of the formula space",
                ("K", "markings", "cache_dir", "output"))
    q.add_argument("--degree", type=int, required=True)
    command("check", cmd_check, "static checks on a formula file", ("markings",), "formula")
    command("boundary", cmd_boundary, "boundary of a formula file", ("markings", "output"),
            "formula")
    command("eval", cmd_eval, "evaluate a formula on a knot", (), "formula", "knot")
    q = command("verify", cmd_verify, "randomized move-invariance check", ("markings", "seed"),
                "formula", "knot")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--walk-length", type=int, default=20)
    q = command("gv", cmd_gv, "planar chain formula from classes", ("output",))
    q.add_argument("--gamma", required=True, help="comma list of nonzero integers")
    command("selftest", cmd_selftest, "quick internal battery", ("seed", "cache_dir"))
    return p


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # rejected by the subcommand's own parser, so the usage line names it
        args.parser.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        return args.func(args)
    except (CliError, textio.ParseError, DiagramError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
