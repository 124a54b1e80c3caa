import hashlib
import json

import pytest

from grothlab import symfunc
from grothlab.cli import main
from grothlab.polynomial import Y, as_poly, text_int
from grothlab.shapes import subpartitions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExpand:
    def test_g_text(self, capsys):
        code, out = run(capsys, "expand", "g", "--shape", "2,1", "--n", "2")
        assert code == 0
        assert "x1^2*x2" in out and "t1" in out

    def test_empty_shape_is_one(self, capsys):
        code, out = run(capsys, "expand", "g", "--shape", "", "--n", "2")
        assert code == 0
        assert out.strip().endswith("= 1")

    def test_G_schur_rendering(self, capsys):
        code, out = run(capsys, "expand", "G", "--shape", "2,1", "--n", "3",
                        "--route", "schur", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "grothlab/1"
        mus = [tuple(term["mu"]) for term in payload["terms"]]
        assert (2, 2, 2) in mus and (2, 1) in mus

    def test_route_matches_library(self, capsys):
        from grothlab.symfunc import dual_grothendieck

        code, out = run(capsys, "expand", "g", "--shape", "2,2,1", "--n", "3",
                        "--route", "jt_h", "--format", "json")
        payload = json.loads(out)
        from grothlab.polynomial import Polynomial

        poly = Polynomial.from_json_obj(payload["polynomial"])
        assert poly == dual_grothendieck((2, 2, 1), 3)

    def test_schur_routes_agree(self, capsys):
        outs = []
        for route in ("combinatorial", "jacobi_trudi"):
            code, out = run(capsys, "expand", "s", "--shape", "3,2,1", "--n", "3",
                            "--route", route, "--format", "json")
            assert code == 0
            outs.append(json.loads(out)["polynomial"])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["g", "G", "s"])
    def test_unknown_route_exits_2(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["expand", kind, "--shape", "2,1", "--route", "bogus"])
        assert exc.value.code == 2
        assert "route 'bogus'" in capsys.readouterr().err

    def test_bad_shape_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "g", "--shape", "1,3"])
        assert exc.value.code == 2


class TestVerify:
    def test_cauchy(self, capsys):
        code, out = run(capsys, "verify", "cauchy", "--m", "3", "--l", "2",
                        "--n", "2")
        assert code == 0 and "[PASS]" in out

    def test_ybe(self, capsys):
        code, out = run(capsys, "verify", "ybe", "--model", "nilp")
        assert code == 0

    def test_routes_small_box(self, capsys):
        code, out = run(capsys, "verify", "routes", "--box", "2x2", "--n", "2")
        assert code == 0
        assert out.count("[PASS]") == 5

    def test_json_format(self, capsys):
        code, out = run(capsys, "verify", "coincidence", "--m", "2", "--l", "2",
                        "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["failures"] == 0

    def test_unknown_identity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_all_runs_every_case(self, capsys):
        code, out = run(capsys, "verify", "all", "--box", "3x3", "--n", "2",
                        "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["failures"] == 0
        assert all(case["pass"] for case in payload["cases"])
        shapes = [la for la in subpartitions((3, 3, 3)) if la]
        want = {
            "cauchy m=3 l=2 n=2",
            "littlewood m=4 l=3 n=2",
            "coincidence m=3 l=3 n=2",
            "finite_cauchy_schur m=2 l=2 n=2",
            "cauchy_littlewood_box m=3 l=2 n=2",
            "bounded_cauchy_littlewood l=2 n=2 degree_cap=8",
            *(f"{ident} la={la} n=2" for la in shapes
              for ident in ("branching", "symmetry")),
            "ybe model=nilp",
            "ybe model=fermionic",
            "ybe model=g_jagged",
            "fnr_dual la=(2, 2, 1) n=3",
            "fnr_G la=(1,) m=4 k=2 n=4",
            *(f"generalized_coincidence nu={nu} m=3 n=2" for nu in shapes),
        }
        names = [case["name"] for case in payload["cases"]]
        assert len(want) == 47 + 21
        assert len(names) == len(want) and set(names) == want


class TestPinnedCliBytes:
    """sha256 of stdout, taken before the partition intervals were merged
    into shapes.subpartitions: the Schur-basis rendering of G (whose terms
    are the interval between la and (la_1)^n) and the whole verify all run.
    The verify duality and verify routes runs were pinned before duality
    summed over one interval and the routes were read from symfunc.ROUTES."""

    @pytest.mark.parametrize("argv, digest", [
        (("expand", "G", "--shape", "2,1", "--n", "3", "--route", "schur", "--format", "json"),
         "731a5a761c0f0baeb502a677db2ef703260cf74295ef0a43bfd217ac1b57211d"),
        # a shape taller than n has no terms
        (("expand", "G", "--shape", "3,1,1", "--n", "2", "--route", "schur", "--format", "json"),
         "4c2f7a81e3e68043aa1278cb5a919a843edefae453c9f579f46a4690ecdaa59e"),
        (("verify", "all", "--format", "json"),
         "c5ae87421993ddd199ba06761c328cb812d7766081328845c92d3f0a72375069"),
        (("verify", "duality", "--box", "3x3", "--format", "json"),
         "df7e90e265ec3f8be3781a91a8fed11ea6f94eb4b523a3be3960c567490f7edd"),
        (("verify", "routes", "--box", "3x3", "--n", "3"),
         "f88691bb21b81f0e0a6e30dc31cfa010813686679b8576ee868fb18bd353e732"),
    ], ids=["G_21_n3", "G_311_n2_empty", "verify_all", "duality_3x3", "routes_3x3_n3"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `expand KIND --shape S --n N --route R --format json` for every
# route of g and G, taken before the routes were read from symfunc.ROUTES
ROUTE_PINS = [
    ("g", "3,2,1", "3", "rpp",
     "9e0211fe7f12c1e7f32a11e82a70884622d8dc9caa5ef595dc5efe670f698d15"),
    ("g", "3,2,1", "3", "schur_decomp",
     "87626ab2e3f9732f81eea9a4bac8d4ba451a816f9fd9be7764bd98344b6cf0ab"),
    ("g", "3,2,1", "3", "jt_h",
     "f88b339e3f587f2947ea264d56efa5579f5437d82ef7aa34e242179d8d157654"),
    ("g", "3,2,1", "3", "jt_e",
     "958db10cc7f29ea642432c04d84126efebaddc7df3716ba1f605d97126406d6f"),
    ("g", "3,2,1", "3", "multischur",
     "65061f7f8bc9f399e658d19482572104a0cf91d891df64dcb5ff91c3c7b1267b"),
    ("g", "3,3,1", "2", "rpp",
     "a34d04abe244a83c04f7b77ced3f20660e3ab7cedf9112d2af67865efb576ea1"),
    ("g", "3,3,1", "2", "schur_decomp",
     "303b54cb8cda93ea23b154aaf42c7c69e0b84349d99737857f1568257c17569c"),
    ("g", "3,3,1", "2", "jt_h",
     "7d3e31d56cbbbe075613182ae4ca0ff7a205d9120eec3023d868eb6a4d5e87bb"),
    ("g", "3,3,1", "2", "jt_e",
     "3467792ff76c28351ec7310a6036a0c8a3a032b4e1aa9992b71d97f12d3bbb43"),
    ("g", "3,3,1", "2", "multischur",
     "2e926fa954d439dff56e99211cf086c5942dcc0277883592a38300dc55831e9b"),
    ("G", "3,2,1", "3", "svt",
     "4e704bd9e51cfbbe2e43781017dc124fa33bba94e01a5090846dfbb5bbca7180"),
    ("G", "3,2,1", "3", "schur_expansion",
     "74f78ebb9000afe210dc072138b251f5cf022b5c7fb2bfdea16a467e3c2e5806"),
    ("G", "3,2,1", "3", "jacobi_trudi",
     "439e9551059fc0d0ab9457142d4fb7570d99d4af5639106214cc3a4dc4c6db16"),
    ("G", "3,2,1", "3", "divided_diff",
     "af8d784d25c6283c182f92ca22bc3e2a0e827c1a964b77408e671e0f2eac40ee"),
    ("G", "3,3,1", "2", "svt",
     "c141c5c3e3fe18d013b90a7978e4cc68b0bd0d3c68876e6baf5aced51e7c8f37"),
    ("G", "3,3,1", "2", "schur_expansion",
     "598af8bdc1bb5924c9045cf3b15969572b8e1b1cdbba3f905e83a32bf1e24825"),
    ("G", "3,3,1", "2", "jacobi_trudi",
     "f8f104104f82176d2df8c3bfafa4e02c796e3a2af4afb1f3dba877a5590201cc"),
    ("G", "3,3,1", "2", "divided_diff",
     "f18c09a45e77e9b9b8fe9dc87d6871f6b4ae1522f080e115cb92c55678772d3b"),
]


class TestPinnedRouteBytes:
    def test_every_route_is_pinned(self):
        for kind in ("g", "G"):
            assert {pin[3] for pin in ROUTE_PINS if pin[0] == kind} == set(symfunc.ROUTES[kind])

    @pytest.mark.parametrize("kind, shape, n, route, digest", ROUTE_PINS,
                             ids=["-".join(pin[:4]) for pin in ROUTE_PINS])
    def test_stdout_digest(self, capsys, kind, shape, n, route, digest):
        code, out = run(capsys, "expand", kind, "--shape", shape, "--n", n,
                        "--route", route, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRouteNegativeControl:
    """One route of g or G, perturbed by one monomial, must make verify
    routes fail on every shape and name the route that disagrees."""

    @pytest.mark.parametrize("obj, route", [(obj, r) for obj in ("g", "G")
                                            for r in symfunc.ROUTES[obj]])
    def test_perturbed_route_is_named(self, capsys, monkeypatch, obj, route):
        exact = symfunc.ROUTES[obj][route]
        monkeypatch.setitem(symfunc.ROUTES[obj], route,
                            lambda shape, xs, ts: exact(shape, xs, ts) + as_poly(Y(1)))
        code, out = run(capsys, "verify", "routes", "--box", "2x2", "--n", "2")
        fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert code == 1 and len(fails) == 5
        first = next(iter(symfunc.ROUTES[obj]))
        for line in fails:
            named = line.split(": ", 1)[1].split("; ")
            if route == first:  # every other route disagrees with it
                assert named == [f"{obj} route {r} != {first}"
                                 for r in symfunc.ROUTES[obj] if r != first]
            else:
                assert named == [f"{obj} route {route} != {first}"]


class TestVerifyFailure:
    """A verifier that reports a failure must make ``verify`` exit 1."""

    LABEL = "cauchy m=3 l=2 n=2"

    @pytest.fixture(autouse=True)
    def broken_cauchy(self, monkeypatch):
        def broken(m, l, n):
            return symfunc.IdentityReport("cauchy", dict(m=m, l=l, n=n), False)

        monkeypatch.setattr(symfunc, "verify_cauchy", broken)
        # the registry holds the function itself, not its name
        monkeypatch.setitem(symfunc.IDENTITY_REGISTRY, "cauchy", broken)

    @pytest.mark.parametrize("identity", ["cauchy", "all"])
    def test_text(self, capsys, identity):
        code, out = run(capsys, "verify", identity)
        lines = out.splitlines()
        assert code == 1
        assert f"[FAIL] {self.LABEL}" in lines
        assert sum(line.startswith("[FAIL]") for line in lines) == 1
        passed, total = map(int, lines[-1].split()[0].split("/"))
        assert passed == total - 1

    @pytest.mark.parametrize("identity", ["cauchy", "all"])
    def test_json(self, capsys, identity):
        code, out = run(capsys, "verify", identity, "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["failures"] == 1
        assert [c["name"] for c in payload["cases"] if not c["pass"]] == [self.LABEL]


class TestLpp:
    ARGS = ["lpp", "exact", "--shape", "2,1", "--t", "1/2,1/3",
            "--x", "1/3,1/4", "--bruteforce"]

    def test_exact_vs_bruteforce(self, capsys):
        code, out = run(capsys, *self.ARGS)
        payload = json.loads(out)
        assert code == 0
        assert payload["exact"] == payload["bruteforce"] == "385/13824"

    def test_empty_shape(self, capsys):
        code, out = run(capsys, "lpp", "exact", "--shape", "", "--t", "1/2",
                        "--x", "1/3")
        payload = json.loads(out)
        assert payload["exact"] == "5/6"

    def test_mc_reproducible(self, capsys):
        argv = ["lpp", "mc", "--shape", "2,1", "--t", "1/2,1/3",
                "--x", "1/3,1/4", "--trials", "2000", "--seed", "11"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["trials"] == 2000
        assert "sigma_distance" in payload

    def test_bad_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lpp", "exact", "--shape", "1", "--t", "3/2", "--x", "1/3"])
        assert exc.value.code == 2

    def test_exact_past_the_int_digit_limit(self, capsys):
        # P(G = 4000) = (1 - q) q^4000 with q = 1/18: a 5,023-digit denominator
        code, out = run(capsys, "lpp", "exact", "--shape", "4000", "--t", "1/2",
                        "--x", "1/9")
        assert code == 0
        num, den = json.loads(out)["exact"].split("/")
        assert (text_int(num), text_int(den)) == (17, 18 ** 4001)


class TestYbe:
    def test_pass(self, capsys):
        code, out = run(capsys, "ybe", "--model", "g_jagged")
        assert code == 0 and "[PASS]" in out

    def test_perturbed_fails_with_boundary(self, capsys):
        code, out = run(capsys, "ybe", "--model", "nilp", "--perturb", "0,1,1,0")
        assert code == 1
        assert "boundary" in out

    def test_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ybe", "--model", "unknown"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ybe", "--perturb", "0,1"],
    ["ybe", "--perturb", "2,1,1,0"],
    ["expand", "g", "--shape", "2,1", "--n", "-1"],
    ["verify", "fnr_G", "--shape", "5", "--m", "1", "--k", "2", "--n", "2"],
    ["lpp", "mc", "--shape", "1", "--t", "99999/100000", "--x", "99999/100000",
     "--trials", "10"],
    *(["verify", "cauchy", flag, "-2"] for flag in ("--n", "--m", "--l")),
    ["verify", "fnr_G", "--k", "-1"],
    ["verify", "bounded_cauchy_littlewood", "--degree-cap", "-1"],
    ["verify", "routes", "--box", "0x0"],
    ["verify", "duality", "--box=-1x2"],
    ["expand", "g", "--shape", "", "--route", "bogus"],
    ["expand", "G", "--shape", "2,1,1", "--n", "2", "--route", "bogus"],
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, label", [
    (["verify", "cauchy", "--m", "0", "--l", "0", "--n", "0"], "cauchy m=0 l=0 n=0"),
    (["verify", "bounded_cauchy_littlewood", "--l", "0", "--n", "0", "--degree-cap", "0"],
     "bounded_cauchy_littlewood l=0 n=0 degree_cap=0"),
])
def test_zero_arguments_are_kept(capsys, argv, label):
    code, out = run(capsys, *argv)
    assert code == 0 and out.splitlines() == [f"[PASS] {label}", "1/1 passed"]

