"""Exit codes and output formats of the command-line front end."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import arrowforms
from arrowforms import textio
from arrowforms.cli import build_parser, main
from arrowforms.engine import gv_formula
from arrowforms.lincomb import LinComb
from arrowforms.diagrams import ArrowDiagram
from arrowforms.engine import Formula
from arrowforms.relations import MarkingWindow, gen_family


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "formula.txt"
    path.write_text(textio.print_formula(gv_formula(2, (1, 1, 1))) + "\n")
    return str(path)


@pytest.fixture
def knot_file(tmp_path):
    from arrowforms.diagrams import GaussDiagram

    path = tmp_path / "knot.gd"
    g = GaussDiagram(3, [(0, 2, 1, 1), (1, 3, 2, -1)])
    path.write_text(textio.print_diagram(g) + "\n")
    return str(path)


def test_enumerate(tmp_path, capsys):
    out = tmp_path / "list.txt"
    rc = main([
        "enumerate", "--degree", "2", "--K", "3", "--markings", "1..2",
        "--species", "arrow", "-o", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("count=")
    count = int(text.splitlines()[0].split("=")[1])
    assert text.count("arrow K=3") == count


def test_solve_emits_parseable_basis(tmp_path, capsys):
    out = tmp_path / "basis.txt"
    rc = main([
        "solve", "--degree", "2", "--K", "3", "--markings", "1..2",
        "-o", str(out),
    ])
    assert rc == 0
    basis = textio.parse_basis(out.read_text())
    assert len(basis) == 2
    assert "dimension=2" in capsys.readouterr().err


@pytest.mark.parametrize("markings,K,dimension,digest", [
    ("1..4", 5, 12, "7faa58173ef6b6157b062e6d7b3a1c834fbc79a4722fc8dbdc37226ecc40d842"),
    ("0,1,2", 2, 2, "380adbaa0c88f662071906c5085b31983bcfa93d0a2a059144ce1183741b99f6"),
])
def test_degree_three_bases_are_pinned(tmp_path, markings, K, dimension, digest, capsys):
    # SHA-256 of the basis files the object-path solver wrote (rows built
    # from RelationInstance vectors): the tuple core prints them byte for byte
    out = tmp_path / "basis.txt"
    rc = main([
        "solve", "--degree", "3", "--K", str(K), "--markings", markings, "-o", str(out),
    ])
    assert rc == 0
    assert "dimension=%d" % dimension in capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_the_degree_four_basis_is_pinned(tmp_path, capsys):
    # the one positive-dimensional degree-4 window found cheap to solve
    out = tmp_path / "basis.txt"
    rc = main(["solve", "--degree", "4", "--K", "0", "--markings", "0..1", "-o", str(out)])
    assert rc == 0
    assert "dimension=1" in capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "219590ad08e963b4fa7ef9ce5797592d6350500d8adb670d9ce1c4b1b7d6e544"
    )


def test_a_rho_only_degree_two_basis_is_pinned(tmp_path, capsys):
    # K - x does not map -2..3 onto itself: only rho is a symmetry of the rows
    out = tmp_path / "basis.txt"
    rc = main(["solve", "--degree", "2", "--K", "2", "--markings=-2..3", "-o", str(out)])
    assert rc == 0
    assert "dimension=23" in capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d00608195ef89d0c6143f59fc7ce8500f211264d89c6a6e2a0133c760012fe8a"
    )


_LAZY_TABLES = """
import io, json, os, sys
from contextlib import redirect_stderr

opened = []

def record(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        path = os.fspath(args[0])
        if os.path.basename(os.path.dirname(path)) == "tables":
            opened.append(os.path.basename(path))

sys.addaudithook(record)
import arrowforms.cli
from arrowforms import relations

def sizes():
    tables = {}
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == "arrowforms":
            for attr in vars(mod).values():
                if callable(getattr(attr, "cache_info", None)):
                    tables[attr.__module__ + "." + attr.__qualname__] = attr.cache_info().currsize
    return tables

at_import = sizes()
read_at_import = list(opened)
with redirect_stderr(io.StringIO()):
    arrowforms.cli.main(["solve", "--degree", "2", "--K", "5", "--markings", "1..4", "-o", sys.argv[1]])
after = sizes()
hits = relations._pair_descriptors.cache_info().hits
relations._pair_descriptors("pairprod")
cached = relations._pair_descriptors.cache_info().hits == hits + 1
print(json.dumps([at_import, read_at_import, after, opened, cached]))
"""


def test_importing_the_cli_builds_no_table_and_a_solve_only_its_own(tmp_path):
    # in a fresh process: importing the command line fills no cached table
    # and reads no move table, and a cold degree-2 solve (arrow diagrams)
    # reads the sign-forgotten six-term table ("pairprod") and the unsigned
    # bigon table, once each, and no other
    src = os.path.dirname(os.path.dirname(arrowforms.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_TABLES, str(tmp_path / "basis.txt")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=300,
    )
    at_import, read_at_import, after, opened, pairprod_cached = json.loads(out.stdout)
    # the three table decoders are among the cached tables seen (four
    # builder caches left the program with the builders: 8 in all)
    assert {
        "arrowforms.moves.models",
        "arrowforms.relations._pair_descriptors",
        "arrowforms.relations._full_anchor_table",
    } <= set(at_import)
    assert len(at_import) >= 8
    assert {name: size for name, size in at_import.items() if size} == {}
    assert read_at_import == []
    assert sorted(opened) == ["full_R2_plain.json", "pair_pairprod.json"]
    assert after["arrowforms.relations._pair_descriptors"] == 1 and pairprod_cached
    assert after["arrowforms.relations._full_anchor_table"] == 1
    assert after["arrowforms.moves.models"] == 0


def test_check_passes(formula_file, capsys):
    rc = main(["check", formula_file, "--markings", "0..3"])
    assert rc == 0
    assert "passes = true" in capsys.readouterr().out


def test_check_fails_with_diagnostic(tmp_path, capsys):
    bad = Formula(LinComb.single(ArrowDiagram(3, [(0, 1, 1, 0), (2, 3, 2, 0)])), 3)
    path = tmp_path / "bad.txt"
    path.write_text(textio.print_formula(bad) + "\n")
    rc = main(["check", str(path), "--markings", "1..2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "passes = false" in captured.out
    assert "first failing instance" in captured.err
    # the first instance, in generation order, that pairs nonzero with bad
    w = MarkingWindow({1, 2}, 3)
    expected = None
    for fam in ("ap1", "ap2", "a6t"):
        for deg in bad.degrees():
            insts = gen_family(fam, deg, w, closure=False, hosts=list(bad.vector.keys()))
            for i, inst in enumerate(insts):
                pairing = sum(
                    bad.vector.coeff(k) * c * k.aut_order() for k, c in inst.vector.items()
                )
                if pairing and expected is None:
                    expected = (fam, deg, i, inst)
    fam, deg, i, inst = expected
    lines = captured.err.splitlines()
    assert lines[0] == "first failing instance: family=%s degree=%d index=%d" % (fam, deg, i)
    assert "\n".join(lines[1:]) == textio.print_lincomb(inst.vector)


def test_boundary_zero(formula_file, capsys):
    rc = main(["boundary", formula_file])
    assert rc == 0
    assert "zero=true" in capsys.readouterr().out


def test_eval(formula_file, knot_file, capsys):
    rc = main(["eval", formula_file, knot_file])
    assert rc == 0
    assert capsys.readouterr().out.startswith("value=")


def test_eval_zero_formula(tmp_path, knot_file, capsys):
    path = tmp_path / "zero.txt"
    path.write_text(textio.print_formula(Formula(LinComb.zero(), 3)) + "\n")
    rc = main(["eval", str(path), knot_file])
    assert rc == 0
    assert "value=0/1" in capsys.readouterr().out


def test_verify_constant(formula_file, knot_file, capsys):
    rc = main([
        "verify", formula_file, knot_file, "--trials", "4",
        "--walk-length", "8", "--seed", "1",
    ])
    assert rc == 0
    assert "constant=true" in capsys.readouterr().out


def test_verify_names_the_first_violating_move(tmp_path, capsys):
    # gv --gamma=1,2,-1 with its first coefficient doubled, walked from the
    # k3 fixture: the walk path up to the violation is pinned by its move
    good = tmp_path / "formula.txt"
    good.write_text(textio.print_formula(gv_formula(2, (1, 2, -1))) + "\n")
    broken = tmp_path / "broken.txt"
    broken.write_text(good.read_text().replace("coef=1/1", "coef=2/1", 1))
    knot = str(Path(__file__).resolve().parent.parent / "fixtures" / "k3.gd")
    walk = [knot, "--trials", "20", "--walk-length", "20", "--seed", "0"]
    assert main(["verify", str(good)] + walk) == 0
    assert "constant=true" in capsys.readouterr().out
    assert main(["verify", str(broken)] + walk) == 1
    out, err = capsys.readouterr()
    assert "constant=false" in out
    assert err == "violation: trial=11 step=11 move=('R3', ((2, 1, 8), 1), ())\n"


def test_verify_seed_determinism(formula_file, knot_file, capsys):
    args = ["verify", formula_file, knot_file, "--trials", "3",
            "--walk-length", "6", "--seed", "7"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_gv_accepts_repeated_classes(tmp_path, capsys):
    out = tmp_path / "gv.txt"
    rc = main(["gv", "--gamma", "1,1,-2", "-o", str(out)])
    assert rc == 0
    f = textio.parse_formula(out.read_text())
    assert f.K == 0
    assert "terms=" in capsys.readouterr().err


def test_gv_of_degree_zero_is_the_empty_diagram(tmp_path, knot_file, capsys):
    out = tmp_path / "gv0.txt"
    rc = main(["gv", "--gamma", "3", "-o", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == "terms=1 K=3\n"
    f = textio.parse_formula(out.read_text())
    assert f.vector == LinComb.single(ArrowDiagram(3))
    assert main(["check", str(out), "--markings", "0..3"]) == 0
    assert "passes = true" in capsys.readouterr().out
    assert main(["eval", str(out), knot_file]) == 0
    assert capsys.readouterr().out == "value=1/1\n"


def test_gv_rejects_zero_class(capsys):
    rc = main(["gv", "--gamma", "1,0,2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_window_is_a_usage_error(capsys):
    rc = main(["enumerate", "--degree", "1", "--K", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_solver_guard_is_a_usage_error(capsys):
    rc = main(["solve", "--degree", "5", "--K", "5", "--markings", "1..4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "solver guard" in err
    assert len(err.splitlines()) == 1


def test_solver_guard_refuses_a_high_degree_before_building_shapes(capsys, monkeypatch):
    # degree 9 has 34,459,425 matchings: the O(1) lower bound refuses it
    from arrowforms import engine

    def unreachable(n):
        raise AssertionError("shape classes built for a refused request")

    monkeypatch.setattr(engine, "_shapes", unreachable)
    rc = main(["solve", "--degree", "9", "--K", "5", "--markings", "1..4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "solver guard" in err


def test_enumerate_guard_refuses_before_building_shapes(capsys, monkeypatch):
    # enumerate shares the solver guard: degree 8 over two markings is
    # refused by the lower bound, degree 4 over 1..4 as Gauss diagrams
    # (860,160 = 218 shape classes x 8^4 choices) by the estimate
    from arrowforms import engine

    rc = main(["enumerate", "--degree", "4", "--K", "5", "--markings", "1..4",
               "--species", "gauss"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "solver guard" in err and "860160" in err

    def unreachable(n):
        raise AssertionError("shape classes built for a refused request")

    monkeypatch.setattr(engine, "_shapes", unreachable)
    rc = main(["enumerate", "--degree", "8", "--K", "0", "--markings", "0..1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "solver guard" in err
    assert len(err.splitlines()) == 1


def test_negative_degree_is_named(capsys):
    rc = main(["solve", "--degree", "-1", "--K", "5", "--markings", "1..4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--degree" in err and "-1" in err
    assert "repeat" not in err


@pytest.mark.parametrize("flag", ["--trials", "--walk-length"])
def test_negative_walk_size_is_named(formula_file, knot_file, flag, capsys):
    rc = main(["verify", formula_file, knot_file, flag, "-3"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == "error: %s must be nonnegative, got -3\n" % flag
    assert "constant" not in out


def test_unwritable_cache_dir_is_reported(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file\n")
    rc = main(["solve", "--degree", "1", "--K", "2", "--markings", "1",
               "--cache-dir", str(not_a_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the solver cache:")
    assert len(err.splitlines()) == 1


def test_unwritable_output_is_reported(tmp_path, capsys):
    not_a_dir = tmp_path / "out"
    not_a_dir.write_text("a regular file\n")
    rc = main(["gv", "--gamma=1,1", "-o", str(not_a_dir / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Not a directory" in err
    assert len(err.splitlines()) == 1


def test_truncated_cache_is_solved_again(tmp_path, capsys):
    args = ["solve", "--degree", "2", "--K", "5", "--markings", "1..4",
            "--cache-dir", str(tmp_path / "cache")]
    cold_out = tmp_path / "cold.txt"
    assert main(args + ["-o", str(cold_out)]) == 0
    assert "dimension=12" in capsys.readouterr().err
    (path,) = (tmp_path / "cache").rglob("*.basis")
    payload = path.read_bytes()
    path.write_bytes(payload[:300])
    warm_out = tmp_path / "warm.txt"
    assert main(args + ["-o", str(warm_out)]) == 0
    assert "dimension=12" in capsys.readouterr().err
    assert path.read_bytes() == payload
    assert warm_out.read_text() == cold_out.read_text()
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_bad_file_is_reported(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a formula\n")
    rc = main(["check", str(path), "--markings", "1..2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_selftest(capsys):
    rc = main(["selftest", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 7
    assert "PASS Polyak span compatibility (degree 2 over 0..2 K=2)\n" in out


@pytest.mark.parametrize(
    "argv, text, err",
    [
        (["check", "{}", "--markings", "0..2"], "formula K=2\ncoef=1\n",
         "error: line 2: no diagram after 'coef=1'\n"),
        (["eval", "{}", "{knot}"], "formula K=2\ncoef=1/1\narrow K=2 n=-1\n",
         "error: line 3: n must be nonnegative\n"),
    ],
)
def test_a_malformed_formula_file_is_one_error_line(tmp_path, knot_file, argv, text, err, capsys):
    path = tmp_path / "formula.txt"
    path.write_text(text)
    rc = main([a.format(path, knot=knot_file) for a in argv])
    assert rc == 2
    out, got = capsys.readouterr()
    assert got == err and out == ""


# flag -> (argv value, destination, parsed value)
_SHARED_FLAGS = {
    "--K": ("2", "K", 2),
    "--markings": ("1..2", "markings", "1..2"),
    "--seed": ("3", "seed", 3),
    "--cache-dir": ("cache", "cache_dir", "cache"),
    "-o": ("out.txt", "output", "out.txt"),
}
# command -> (its other arguments, the shared flags its handler reads)
_COMMAND_FLAGS = {
    "enumerate": (["--degree", "1"], {"--K", "--markings", "-o"}),
    "solve": (["--degree", "1"], {"--K", "--markings", "--cache-dir", "-o"}),
    "check": (["f.txt"], {"--markings"}),
    "boundary": (["f.txt"], {"--markings", "-o"}),
    "eval": (["f.txt", "k.gd"], set()),
    "verify": (["f.txt", "k.gd"], {"--markings", "--seed"}),
    "gv": (["--gamma", "1,1"], {"-o"}),
    "selftest": ([], {"--seed", "--cache-dir"}),
}


@pytest.mark.parametrize("flag", list(_SHARED_FLAGS))
@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_each_command_takes_only_the_shared_flags_it_reads(command, flag, capsys):
    rest, reads = _COMMAND_FLAGS[command]
    value, dest, parsed = _SHARED_FLAGS[flag]
    argv = [command] + rest + [flag, value]
    if flag in reads:
        assert getattr(build_parser().parse_args(argv), dest) == parsed
    else:
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: %s %s" % (flag, value) in capsys.readouterr().err


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_an_unread_flag_is_rejected_by_its_subcommand(command, capsys):
    rest, reads = _COMMAND_FLAGS[command]
    flag = min(set(_SHARED_FLAGS) - reads)
    value = _SHARED_FLAGS[flag][0]
    with pytest.raises(SystemExit) as e:
        main([command] + rest + [flag, value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: arrowforms %s " % command)
    assert "arrowforms %s: error: unrecognized arguments: %s %s" % (command, flag, value) in err


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_names_a_bad_markings_value(formula_file, knot_file, capsys):
    rc = main(["verify", formula_file, knot_file, "--markings", "1..x"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: bad --markings value: ") and out == ""


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    argvs = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("arrowforms ")
    ]
    assert {argv[0] for argv in argvs} == set(_COMMAND_FLAGS)
    for argv in argvs:
        build_parser().parse_args(argv)
