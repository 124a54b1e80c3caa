import json

import pytest

from grothlab import symfunc
from grothlab.cli import main
from grothlab.polynomial import text_int
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


class TestThreads:
    def test_worker_pool_cap(self, capsys):
        code = main(["verify", "routes", "--box", "2x2", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("[PASS]") == 5
