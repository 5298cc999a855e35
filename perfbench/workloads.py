"""The four workloads: inputs made from the seed, the fixed operation list,
and the checks of every operation's output.

A workload object is made fresh in each worker process.  `setup` writes the
input files into the round directory and returns the operations; the
program sees only those files and the argv.  `check` returns a list of
problems, empty when every output is right.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import oracles

CLASSES = (-2, -1, 1, 2)  # homology classes of the planar chain formulas


class Op:
    """One call into the program.  `call` prints the output and returns the
    exit code; `outputs` are files or directories whose bytes are part of
    the output; `expect` is the exit code a correct program gives."""

    __slots__ = ("label", "call", "outputs", "expect", "data")

    def __init__(self, label, call, outputs=(), expect=0, data=None):
        self.label = label
        self.call = call
        self.outputs = tuple(outputs)
        self.expect = expect
        self.data = data


def cli_op(label, argv, outputs=(), expect=0, data=None):
    from arrowforms import cli

    argv = [str(a) for a in argv]
    return Op(label, lambda: cli.main(argv), outputs, expect, data)


def run_cli(argv):
    """A set-up or check call of the command line; raises on failure."""
    from arrowforms import cli

    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError("arrowforms %s exited %s" % (" ".join(map(str, argv)), code))


def _marks_arg(values):
    return ",".join(str(v) for v in sorted(values))


def _field(text, name):
    m = re.search(r"^%s\s*=\s*(\S+)\s*$" % re.escape(name), text, re.M)
    return m.group(1) if m else None


def _terms(formula):
    """A formula as oracle input: [(((tail, head, mark), ...), coefficient)]."""
    return [
        (tuple((t, h, m) for (t, h, m, _s) in k.arrows), c)
        for k, c in formula.vector.items()
    ]


# ---------------------------------------------------------------------------
# solve


class Solve:
    """Cold `solve` runs, each into a fresh cache directory."""

    # (degree, markings, K); the degree-3 windows are the cheapest ones: the
    # smallest window holding a degree-3 planar chain formula takes ~15 s.
    CASES = [(2, "1..4", 5), (2, "0..2", 2), (3, "1", 2), (3, "2", 1)]

    def setup(self, d, rng):
        # The first solve in a process also builds the matching tables
        # (about 0.08 s), so a fixed order keeps that cost on one operation.
        ops = []
        for i, (n, marks, K) in enumerate(self.CASES):
            out, cache = d / ("basis%d.txt" % i), d / ("cache%d" % i)
            argv = ["solve", "--degree", n, "--K", K, "--markings", marks,
                    "--cache-dir", cache, "-o", out]
            ops.append(cli_op("solve d%d %s K=%d" % (n, marks, K), argv, [out, cache],
                              data=(n, marks, K, argv)))
        return ops

    def check(self, ops, results):
        from arrowforms import engine, textio
        from arrowforms.boundary import boundary_d
        from arrowforms.lincomb import LinComb
        from arrowforms.relations import MarkingWindow, enumerate_diagrams, gen_family

        bad = []
        for i, (op, res) in enumerate(zip(ops, results)):
            if res["failed"]:
                continue
            n, marks, K, argv = op.data
            w = MarkingWindow.parse(marks, K)
            basis = textio.parse_basis(op.outputs[0].read_text())
            vecs = [dict(f.vector.items()) for f in basis]
            if _field(res["stderr"], "dimension") != str(len(basis)):
                bad.append("%s: stderr does not report dimension=%d" % (op.label, len(basis)))
            # the constraint rows: kink, bigon and 6-term instances paired
            # with the window's columns (coefficient times |Aut|)
            columns = enumerate_diagrams("arrow", n, w)
            colset = set(columns)
            rows = {}
            for fam in ("ap1", "ap2", "a6t"):
                rows[fam] = []
                for inst in gen_family(fam, n, w, closure=False):
                    r = {k: c * k.aut_order() for k, c in inst.vector.items() if k in colset}
                    if r:
                        rows[fam].append(r)
            every = rows["ap1"] + rows["ap2"] + rows["a6t"]
            if len(basis) != len(columns) - oracles.rank_mod_p(every):
                bad.append("%s: dimension %d != %d columns - GF(p) rank"
                           % (op.label, len(basis), len(columns)))
            if any(sum(c * v.get(k, 0) for k, c in r.items()) for r in every for v in vecs):
                bad.append("%s: a basis vector misses a constraint row" % op.label)
            # the kernel of the paper's linear map: boundary d with kink and bigon rows
            wide = engine.normalization_window(w)
            drows = {}
            for D in columns:
                for M, c in boundary_d(LinComb.single(D), wide).items():
                    drows.setdefault(M, {})[D] = c
            dker = oracles.dense_kernel(rows["ap1"] + rows["ap2"] + list(drows.values()), columns)
            if len(dker) != len(basis) or not oracles.same_span(dker, vecs):
                bad.append("%s: basis and boundary kernel (dim %d) differ" % (op.label, len(dker)))
            span = oracles.DenseSpan(vecs)
            nonzero = [g for g in range(-K - 3, K + 4) if g]
            for gamma in itertools.product(nonzero, repeat=n + 1):
                if sum(gamma) != K:
                    continue
                f = engine.gv_formula(n, gamma)
                if set(f.markings()) <= w.allowed and dict(f.vector.items()) not in span:
                    bad.append("%s: gv formula %s outside the basis span" % (op.label, gamma))
            # a warm re-solve from the cache repeats the cold output byte for byte
            warm = op.outputs[0].with_name("warm%d.txt" % i)
            run_cli(argv[:-1] + [warm])
            if warm.read_bytes() != op.outputs[0].read_bytes():
                bad.append("%s: warm re-solve from the cache differs" % op.label)
        return bad


# ---------------------------------------------------------------------------
# check


def _gv_file(d, gamma):
    from arrowforms import textio

    path = d / ("gv_%s.txt" % "_".join(str(g) for g in gamma))
    run_cli(["gv", "--gamma=" + ",".join(map(str, gamma)), "-o", path])
    return path, textio.parse_formula(path.read_text())


def _raise_coefficient(src, dst, rng):
    """Copy a formula file with one seeded coefficient raised by 1."""
    lines = src.read_text().splitlines()
    idx = rng.choice([i for i, l in enumerate(lines) if l.startswith("coef=")])
    p, q = (int(x) for x in lines[idx][5:].split("/"))
    lines[idx] = "coef=%d/%d" % (p + q, q)
    dst.write_text("\n".join(lines) + "\n")


class Check:
    """`check` on planar chain formulas, null-pair formulas and negative
    controls, each over its markings together with 0 and K."""

    DEGREE2 = 32  # seeded draw from the 64 degree-2 classes
    # Degree-3 checks cost 0.2-1.5 s each depending on the classes, so a
    # seeded draw would move wall_s with the seed by more than its bound;
    # these three fixed classes cost about the median.
    DEGREE3 = [(2, 1, 2, -1), (1, -2, 2, -2), (1, 1, -1, -2)]
    CONTROLS = 2

    def setup(self, d, rng):
        from arrowforms import engine, textio

        jobs = []
        degree2 = rng.sample(list(itertools.product(CLASSES, repeat=3)), self.DEGREE2)
        for gamma in degree2 + self.DEGREE3:
            path, f = _gv_file(d, gamma)
            jobs.append(("gv %s" % (gamma,), path, set(f.markings()) | {0, f.K}, 0))
        for a in (1, 2, 5):
            path = d / ("null_%d.txt" % a)
            path.write_text(textio.print_formula(engine.null_pair_formula(a, 5)) + "\n")
            jobs.append(("null pair a=%d K=5" % a, path, {0, 5, a, 5 - a}, 0))
        # negative controls: a degree-2 formula with one coefficient raised by
        # 1 (every such change fails the check) must exit 1
        for label, path, marks, _e in rng.sample(jobs[:self.DEGREE2], self.CONTROLS):
            raised = d / ("raised_%s" % path.name)
            _raise_coefficient(path, raised, rng)
            jobs.append(("raised " + label, raised, marks, 1))
        rng.shuffle(jobs)
        return [
            cli_op("check " + label, ["check", path, "--markings=" + _marks_arg(marks)], expect=expect)
            for label, path, marks, expect in jobs
        ]

    def check(self, ops, results):
        bad = []
        for op, res in zip(ops, results):
            if res["failed"]:
                continue
            if res["code"] != op.expect:
                bad.append("%s: exit %s, expected %d" % (op.label, res["code"], op.expect))
            if _field(res["stdout"], "consistent") != "true":
                bad.append("%s: report is not consistent" % op.label)
        return bad


# ---------------------------------------------------------------------------
# walk

# the (2,3) and (2,5) torus-knot patterns of the program's fixtures
K3 = [(0, 3, 0, 1), (1, 4, 2, 1), (2, 5, 0, 1)]
K5 = [(0, 5, 0, 1), (1, 6, 2, 1), (2, 7, 0, 1), (3, 8, 2, 1), (4, 9, 0, 1)]
START = [(0, 2, 1, 1), (1, 3, 2, -1)]


def _knot_file(path, K, arrows):
    from arrowforms import textio
    from arrowforms.diagrams import GaussDiagram

    path.write_text(textio.print_diagram(GaussDiagram(K, arrows)) + "\n")
    return path


class Walk:
    """`verify` walks: the degree-2 solver basis, the null-pair formula on
    the fixture knots, and one degree-3 planar chain formula."""

    TRIALS = 5
    WALK_LENGTH = 20

    def setup(self, d, rng):
        from arrowforms import engine, textio

        jobs = []
        basis_path = d / "basis.txt"
        run_cli(["solve", "--degree", 2, "--K", 5, "--markings", "1..4", "-o", basis_path])
        start = _knot_file(d / "start.gd", 5, START)
        for i, f in enumerate(textio.parse_basis(basis_path.read_text())):
            path = d / ("basis%02d.txt" % i)
            path.write_text(textio.print_formula(f) + "\n")
            jobs.append(("basis[%d]" % i, path, start, START, None))
        null = d / "null.txt"
        null.write_text(textio.print_formula(engine.null_pair_formula(2, 2)) + "\n")
        jobs.append(("null pair on k3", null, _knot_file(d / "k3.gd", 2, K3), K3, 2))
        jobs.append(("null pair on k5", null, _knot_file(d / "k5.gd", 2, K5), K5, 6))
        gamma = rng.choice(list(itertools.product(CLASSES, repeat=4)))
        path, f = _gv_file(d, gamma)
        marks = sorted(set(f.markings()) | {0, f.K})
        ends = list(range(6))
        rng.shuffle(ends)
        knot = [(ends[2 * i], ends[2 * i + 1], rng.choice(marks), rng.choice((1, -1)))
                for i in range(3)]
        jobs.append(("gv %s" % (gamma,), path, _knot_file(d / "knot3.gd", f.K, knot), knot, None))
        return [
            cli_op("verify " + label,
                   ["verify", path, knot_path, "--trials", self.TRIALS,
                    "--walk-length", self.WALK_LENGTH, "--seed", rng.randrange(1 << 31)],
                   data=(path, arrows, want))
            for label, path, knot_path, arrows, want in jobs
        ]

    def check(self, ops, results):
        from arrowforms import textio

        bad = []
        for op, res in zip(ops, results):
            if res["failed"]:
                continue
            path, arrows, want = op.data
            if _field(res["stdout"], "constant") != "true":
                bad.append("%s: value not constant along the walks" % op.label)
            reported = _field(res["stdout"], "value")
            value = Fraction(reported) if reported else None
            brute = oracles.brute_value(_terms(textio.parse_formula(path.read_text())), arrows)
            if value != brute:
                bad.append("%s: value %s, brute force gives %s" % (op.label, reported, brute))
            if want is not None and value != want:
                bad.append("%s: value %s, expected %d" % (op.label, reported, want))
        return bad


# ---------------------------------------------------------------------------
# span


def _span_call(n, marks, K, limit):
    from arrowforms import relations, textio

    def call():
        rep = relations.check_I_span_compat(
            n, relations.MarkingWindow.parse(marks, K), limit_per_kind=limit
        )
        print("checked=%d" % rep["checked"])
        print("failures=%d" % len(rep["failures"]))
        print("skipped=%s" % sorted(rep["skipped"].items()))
        for kind, r in rep["failures"]:
            print("failure %s\n%s" % (kind, textio.print_lincomb(r)))
        return 0 if not rep["failures"] else 1

    return call


class Span:
    """`check_I_span_compat` over small windows (no subcommand exists)."""

    # (degree, markings, K, limit_per_kind)
    CASES = [(3, "1", 1, 20), (3, "0..1", 1, 5), (2, "0..2", 2, None)]
    SAMPLE = 6  # memberships per operation confirmed by dense elimination

    def setup(self, d, rng):
        self.rng = rng
        return [
            Op("span d%d %s K=%d limit=%s" % case, _span_call(*case), data=case)
            for case in self.CASES
        ]

    def check(self, ops, results):
        from arrowforms.maps import subdiagram_expand_I
        from arrowforms.relations import MarkingWindow, gen_family, r_relation_vectors

        bad = []
        for op, res in zip(ops, results):
            if res["failed"]:
                continue
            n, marks, K, limit = op.data
            w = MarkingWindow.parse(marks, K)
            moves = r_relation_vectors(n, w, limit)
            if _field(res["stdout"], "checked") != str(len(moves)):
                bad.append("%s: checked != %d move-difference vectors" % (op.label, len(moves)))
            if _field(res["stdout"], "failures") != "0":
                bad.append("%s: span failures reported" % op.label)
            span = oracles.DenseSpan([
                dict(inst.vector.items())
                for deg in range(1, n + 1)
                for fam in ("p1", "p2", "p3")
                for inst in gen_family(fam, deg, w)
            ])
            for kind, r in self.rng.sample(moves, min(self.SAMPLE, len(moves))):
                if dict(subdiagram_expand_I(r).items()) not in span:
                    bad.append("%s: I(%s move) outside the span by dense elimination" % (op.label, kind))
        return bad


WORKLOADS = {"solve": Solve, "check": Check, "walk": Walk, "span": Span}
