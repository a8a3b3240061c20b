import hashlib
import json
import shlex
import subprocess
import sys

from unittest import mock

import pytest

from tmscaling import cli, exponents, numtheory, riesz
from tmscaling.cli import main
from tmscaling.numtheory import doubling_orbit
from tmscaling.wavenumber import WaveNumber


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


class TestExponentCommand:
    def test_prints_beta_for_table_entry(self, run_cli):
        code, out, err = run_cli("exponent", "--k", "3/17")
        assert code == 0
        assert "beta = 0.266441" in out
        assert "orbit_size = 8" in out
        assert err == ""

    def test_extinct_marker_for_dyadic(self, run_cli):
        code, out, _ = run_cli("exponent", "--k", "3/8")
        assert code == 0
        assert "beta = extinct" in out
        assert "0." not in out.split("beta")[1].split("\n")[0]

    def test_extra_dyadic_power_flag(self, run_cli):
        code, out, _ = run_cli("exponent", "--k", "3/17", "--r", "2")
        assert code == 0
        assert "3/(2^2 * 17)" in out
        assert "beta = 0.266441" in out  # prefactor has no effect

    def test_csv_format(self, run_cli):
        code, out, _ = run_cli("exponent", "--k", "1/9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "k,kind,beta,method,orbit_size,representative"
        assert lines[2].startswith("1/9,value,-0.471679,coset-formula,6,1")

    def test_json_format(self, run_cli):
        code, out, _ = run_cli("exponent", "--k", "1/3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "value"
        assert abs(payload["value"] - 0.584963) < 1e-6

    def test_json_written_in_batches_is_json_dumps(self, run_cli, monkeypatch):
        monkeypatch.setattr(cli, "_ORBIT_SLICE", 3)
        code, out, _ = run_cli("exponent", "--k", "3/17", "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_bad_rational_exits_2(self, run_cli):
        code, _, err = run_cli("exponent", "--k", "abc")
        assert code == 2
        assert "error" in err

    def test_zero_denominator_exits_2(self, run_cli):
        code, _, err = run_cli("exponent", "--k", "3/0")
        assert code == 2
        assert "error" in err

    def test_orbit_line_spans_several_slices(self, run_cli):
        # the orbit of 1 mod 65539 has 65538 residues, one more than a slice
        code, out, _ = run_cli("exponent", "--k", "1/65539")
        assert code == 0
        assert out.splitlines()[6] == "orbit = " + " ".join(
            map(str, doubling_orbit(1, 65539)))

    def test_orbit_longer_than_the_budget_exits_2(self, run_cli, monkeypatch):
        monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 100)
        code, out, err = run_cli("exponent", "--k", "1/1000003")
        assert code == 2
        assert out == ""
        assert "--k 1/1000003" in err
        assert "MAX_ORBIT_LENGTH = 100" in err


class TestGfunCommand:
    def test_value(self, run_cli):
        code, out, _ = run_cli("gfun", "--q", "9")
        assert code == 0
        assert "g(9) = -0.207519" in out

    def test_even_q_exits_2(self, run_cli):
        code, _, err = run_cli("gfun", "--q", "4")
        assert code == 2
        assert "error" in err


class TestTableCommand:
    def test_csv_shape(self, run_cli):
        code, out, _ = run_cli("table", "--qmax", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# tmscaling table --qmax 200")
        assert lines[1] == "q,p,beta"
        assert lines[2] == "17,3,0.266441"
        # all (q, p) pairs below 200 from the reference list
        pairs = [tuple(map(int, ln.split(",")[:2])) for ln in lines[2:]]
        assert pairs[:4] == [(17, 3), (31, 5), (31, 11), (33, 5)]

    def test_json_round_trip(self, run_cli):
        code, out, _ = run_cli("table", "--qmax", "40", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == {"q": 17, "p": 3, "beta": 0.266441}

    def test_digits_flag(self, run_cli):
        code, out, _ = run_cli("table", "--qmax", "20", "--digits", "3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "17,3,0.266"

    def test_out_of_range_bound_exits_2(self, run_cli):
        code, _, err = run_cli("table", "--qmax", "20000")
        assert code == 2
        assert "error" in err


class TestFigureCommand:
    def test_rows_for_small_qmax(self, run_cli):
        code, out, _ = run_cli("figure", "--qmax", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "q,beta_1_over_q,g_q"
        assert [ln.split(",")[0] for ln in lines[2:]] == ["3", "5", "7", "9"]
        assert lines[2] == "3,0.584963,0.584963"


class TestTraceCommand:
    def test_extinct_trace_shows_inf_literal(self, run_cli):
        code, out, _ = run_cli("riesz-trace", "--k", "1/4", "--nmax", "5")
        assert code == 0
        assert "# extinct_at = 2" in out
        assert out.strip().splitlines()[-1] == "5,-inf,-inf"

    def test_periodic_trace_values(self, run_cli):
        code, out, _ = run_cli("riesz-trace", "--k", "1/3", "--nmax", "4")
        lines = out.strip().splitlines()
        assert lines[-1] == "4,2.33985,0.584963"

    def test_rational_stream_spec_agrees_with_exact_path(self, run_cli):
        def data(out):
            return [ln for ln in out.splitlines()
                    if not ln.startswith(("# tmscaling", "# wave_number"))]
        _, exact, _ = run_cli("riesz-trace", "--k", "1/4", "--nmax", "6")
        _, stream, _ = run_cli("riesz-trace", "--k", "rational:1/4", "--nmax", "6")
        assert "# extinct_at = 2" in stream
        assert data(stream) == data(exact)

    def test_every_above_nmax_exits_2_naming_the_flag(self, run_cli):
        code, out, err = run_cli("riesz-trace", "--k", "1/3", "--nmax", "5", "--every", "10")
        assert code == 2
        assert out == ""
        assert "--every 10 is larger than --nmax 5" in err

    def test_stream_target(self, run_cli):
        code, out, _ = run_cli("riesz-trace", "--k", "random:3", "--nmax", "8",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["samples"]) == 8

    @pytest.mark.parametrize("k", ["5/4000012", "rational:5/4000012"])
    def test_ladder_longer_than_the_budget_exits_2(self, run_cli, monkeypatch, k):
        # 5 / (2**2 * 1000003): 2 pre-periodic levels, then the orbit of 5 mod 1000003
        monkeypatch.setattr(numtheory, "MAX_ORBIT_LENGTH", 100)
        code, out, _ = run_cli("riesz-trace", "--k", k, "--nmax", "102")
        assert code == 0 and len(out.splitlines()) == 3 + 102
        code, out, err = run_cli("riesz-trace", "--k", k, "--nmax", "103")
        assert code == 2
        assert out == ""
        assert f"--k {k} --nmax 103" in err
        assert "MAX_ORBIT_LENGTH = 100" in err


class TestWeylCommand:
    def test_header_echoes_seed(self, run_cli):
        code, out, _ = run_cli("weyl", "--stream", "random:5", "--samples", "512",
                               "--harmonics", "2")
        assert code == 0
        assert "seed=5" in out

    def test_json_payload(self, run_cli):
        code, out, _ = run_cli("weyl", "--stream", "rational:1/3",
                               "--samples", "100", "--harmonics", "3",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["stream"]["kind"] == "rational-periodic"
        assert payload["weyl_moduli"][2] > 0.9

    def test_bad_stream_spec_exits_2(self, run_cli):
        code, _, err = run_cli("weyl", "--stream", "bogus:1")
        assert code == 2
        assert "stream spec" in err


class TestPerturbAndMix:
    def test_perturb_final_value(self, run_cli):
        code, out, _ = run_cli("perturb", "--k", "1/3", "--nmax", "4096",
                               "--format", "plain")
        assert code == 0
        assert "final_running_exponent = 0.567747" in out

    def test_mix_summary(self, run_cli):
        code, out, _ = run_cli("mix", "--a", "rational:1/3", "--b", "random:7",
                               "--nmax", "65536", "--format", "plain")
        assert code == 0
        assert "liminf = -0.979942" in out
        assert "limsup = 0.345673" in out


class TestTraceGoldenOutput:
    """Whole stdout of small trace commands, pinned by sha256.

    The digests were taken from the per-sample formatting that preceded
    the columnar trace (one ``format_float`` call per value), so they pin
    every byte of the CSV and JSON renderings.  The last three pin the
    labels and descriptions of flipped and block-mixed streams; they were
    taken while ``flipped`` still took any container of positions and
    ``block_mixed`` an explicit schedule.
    """

    @pytest.mark.parametrize("argv,digest", [
        ("riesz-trace --k 1/9 --nmax 4096",
         "2387cc74b06e9aa7a469020f7b3dea9849b9fc7ca5ec149edb99c34b31b052fb"),
        ("riesz-trace --k 1/8 --nmax 20 --format json",
         "a5793fc6e6070ac9a210c77df0ee5eaad727e0814deb770ff7bf4ca4b6e97293"),
        ("riesz-trace --k random:5 --nmax 3000 --every 7 --format json",
         "66eb55ac1aa80d92dbd4bd5e829ded66d80a1d89e4db0a1aabd199609c174fe0"),
        ("riesz-trace --k 0.1371 --nmax 200 --digits 12",
         "55500a48cec32cca403ee1335a9064a70f766cdb3c4dae38fafb1596500743fe"),
        ("perturb --k 1/5 --nmax 4097 --format json",
         "bafa3b5ae163700189bba2d042aad91546bb52808c10aef0da42d75199bd5037"),
        ("perturb --k 1/3 --nmax 5000",
         "38b57aa5b0b9812ea9fc13c5a146f6c3d92d34d181deb315367c9f030a9c2907"),
        ("mix --a random:3 --b rational:1/7 --growth 3 --nmax 5000 --format json",
         "dc28297b34e4da9165a45744d4d4b50eaf628afb6e0ecd9e1a16169ce3172855"),
        ("mix --a rational:1/3 --b random:7 --nmax 20000",
         "26cbf88c650799e999eee018961a933badec611f35485feaadc13e23bbabdabd"),
        ("weyl --stream flipped:1/3:2 --samples 5000 --format json",
         "4b5d583f6fa7de5365158864f78595fa8614a7aa260ac58a2e365067c76ad8bd"),
        ("perturb --k 1/3 --flip-start 0 --nmax 300 --format json",
         "cc97a2d110728a8c3bc6968477a5944be7731f661928fd75f9523774a12829c3"),
        ("mix --a flipped:1/5:0 --b random:9 --growth 2 --nmax 70000 --format json",
         "68dc44e025051810c10dcbda34b26f3167df46359a562b77806ab3140bd16a61"),
    ])
    def test_stdout_digest(self, run_cli, argv, digest):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExactGoldenOutput:
    """Whole stdout of exact-orbit commands, pinned by sha256.

    The digests were taken while ``doubling_orbit`` still returned a list
    and the orbit line joined ``str`` of each residue.  The last two orbits
    have moduli above 2**31, whose residues are Python ints.
    """

    @pytest.mark.parametrize("argv,digest", [
        ("figure --qmax 5000",
         "1df638b66637a332784c44c65fe7ef554609bd944fd1db8eafe94eb7ab8b16ad"),
        ("exponent --k 1/1000003",
         "a6346d815071111f2da0a7cf2f11ab3a3fd398da1b1b71a370336ff3aa42020e"),
        ("exponent --k 1/1000003 --format json",
         "c64b1415b0abbf8039abf7e3ead784992ad6d5626a8ca8b64e9696546e1dc243"),
        ("exponent --k 1/2147483649",
         "ba0ea5d835404451f6499aa050341d09e918b5a18e972724ee20bfb4484f8eac"),
        ("exponent --k 3/2305843009213693951 --format json",
         "fad0bd06e10aebaad5b5592086f72f5833e3b52c8f83eb92f3982122ae0fedfd"),
    ])
    def test_stdout_digest(self, run_cli, argv, digest):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestArgumentValidation:
    @pytest.mark.parametrize("argv,flag", [
        (("riesz-trace", "--k", "1/3", "--every", "0"), "--every"),
        (("perturb", "--k", "1/3", "--nmax", "0"), "--nmax"),
        (("weyl", "--stream", "random:1", "--samples", "0"), "--samples"),
        (("weyl", "--stream", "random:1", "--harmonics", "-2"), "--harmonics"),
        (("exponent", "--k", "1/3", "--digits", "-1"), "--digits"),
        (("table", "--qmax", "-5"), "--qmax"),
        (("figure", "--qmax", "0"), "--qmax"),
        (("identities", "--qmax", "0"), "--qmax"),
        (("identities", "--qsum-max", "0"), "--qsum-max"),
        (("exponent", "--k", "1/3", "--r", "-1"), "--r"),
        (("perturb", "--k", "1/3", "--flip-start", "-1"), "--flip-start"),
        (("mix", "--a", "rational:1/3", "--b", "random:1", "--growth", "1"), "--growth"),
        (("gfun", "--q", "4"), "--q"),
        (("gfun", "--q", "1"), "--q"),
        (("gfun", "--q", "-3"), "--q"),
    ])
    def test_out_of_range_value_exits_2_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >=" in err

    @pytest.mark.parametrize("flag", ["--qmax", "--qsum-max"])
    def test_identity_bound_above_enumeration_cap_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["identities", flag, "10001"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be <= 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["table", "figure"])
    def test_qmax_above_enumeration_cap_exits_2_naming_the_flag(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--qmax", "20000"])
        assert exc.value.code == 2
        assert "argument --qmax: must be <= 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_tolerance_exits_2(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--qmax", "9", "--qsum-max", "9", f"--tol={tol}"])
        assert exc.value.code == 2
        assert "argument --tol: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["random:abc", "flipped:1/3:x"])
    def test_non_integer_in_stream_spec_names_the_spec(self, run_cli, spec):
        code, out, err = run_cli("weyl", "--stream", spec, "--samples", "8")
        assert code == 2
        assert out == ""
        assert repr(spec) in err
        assert "invalid literal" not in err


    @pytest.mark.parametrize("spec", ["random:-1", "flipped:1/3:-2"])
    def test_negative_seed_or_start_names_the_spec(self, run_cli, spec):
        code, out, err = run_cli("weyl", "--stream", spec, "--samples", "8")
        assert code == 2
        assert out == ""
        assert f"invalid stream spec {spec!r}" in err


class TestInputBudgets:
    """Values that would exhaust memory or Python's int-to-str limit exit 2, naming the flag."""

    @pytest.mark.parametrize("r", ["100000000000", "20000"])
    def test_r_above_the_bound_exits_2_before_any_shift(self, run_cli, monkeypatch, r):
        monkeypatch.setattr(WaveNumber, "with_extra_dyadic_power", mock.Mock(
            side_effect=AssertionError("shifted")))
        code, out, err = run_cli("exponent", "--k", "1/3", "--r", r)
        assert code == 2 and out == ""
        assert "argument --r: must be <= 10000" in err

    def test_r_at_the_bound_prints_k(self, run_cli):
        code, out, _ = run_cli("exponent", "--k", "1/3", "--r", "10000")
        assert code == 0
        assert "= 1/(2^10000 * 3)" in out

    @pytest.fixture
    def int_str_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    def test_k_too_long_to_print_exits_2_naming_k_and_r(self, run_cli, int_str_limit):
        # 2**10000 * q has 3011 + 1300 digits, past the 4300-digit limit
        k = f"1/{10**1299 + 1}"
        code, out, err = run_cli("exponent", "--k", k, "--r", "10000")
        assert code == 2 and out == ""
        assert f"--k {k} --r 10000: k has too many digits to print" in err
        assert "Exceeds the limit" not in err

    def test_trace_samples_above_the_budget_exit_2_naming_nmax_and_every(self, run_cli,
                                                                          monkeypatch):
        monkeypatch.setattr(riesz, "MAX_TRACE_SAMPLES", 100)
        code, out, err = run_cli("riesz-trace", "--k", "1/3", "--nmax", "100000000000000")
        assert code == 2 and out == ""
        assert "--nmax 100000000000000 --every 1: " in err
        assert "MAX_TRACE_SAMPLES = 100" in err
        code, out, _ = run_cli("riesz-trace", "--k", "1/3", "--nmax", "1000", "--every", "10")
        assert code == 0 and len(out.splitlines()) == 2 + 1 + 100
        code, _, err = run_cli("riesz-trace", "--k", "1/3", "--nmax", "1000", "--every", "9")
        assert code == 2 and "--nmax 1000 --every 9: " in err

    def test_digits_above_17_exit_2(self, run_cli):
        code, out, err = run_cli("exponent", "--k", "1/3", "--digits", "100000000000")
        assert code == 2 and out == ""
        assert "argument --digits: must be <= 17" in err
        code, out, _ = run_cli("exponent", "--k", "1/3", "--digits", "17", "--format", "csv")
        assert code == 0
        beta = float(out.splitlines()[2].split(",")[2])
        assert beta == exponents.beta_rational("1/3").value


class TestIdentitiesCommand:
    def test_passes_at_default_tolerance(self, run_cli):
        code, out, _ = run_cli("identities", "--qmax", "45", "--qsum-max", "50")
        assert code == 0
        assert "status = ok" in out

    def test_impossible_tolerance_exits_3(self, run_cli):
        code, out, _ = run_cli("identities", "--qmax", "45", "--qsum-max", "50",
                               "--tol", "1e-30")
        assert code == 3
        assert "status = FAIL" in out


class TestDeterminism:
    def test_table_bytes_stable_across_runs_and_threads(self):
        def run(threads):
            import os
            env = dict(os.environ)
            env["TM_SCALING_THREADS"] = threads
            return subprocess.run(
                [sys.executable, "-m", "tmscaling", "table", "--qmax", "120"],
                capture_output=True, env=env, check=True).stdout
        first = run("1")
        assert first == run("1")
        assert first == run("4")


class TestInvocationHeader:
    """Each output's header reruns to the same bytes, for every verb and format."""

    # every option of each verb set to a non-default value
    CASES = [
        ("exponent", "--k", "5/48", "--r", "2", "--digits", "9"),
        ("exponent", "--k=-1/3", "--digits", "4"),
        ("gfun", "--q", "15", "--digits", "4"),
        ("table", "--qmax", "60", "--digits", "4"),
        ("figure", "--qmax", "30", "--digits", "5"),
        ("riesz-trace", "--k", "random:5", "--nmax", "40", "--every", "3",
         "--digits", "4"),
        ("weyl", "--stream", "flipped:1/3:2", "--samples", "300", "--harmonics", "2",
         "--digits", "8"),
        ("perturb", "--k", "1/5", "--nmax", "90", "--flip-start", "2", "--digits", "5"),
        ("mix", "--a", "rational:1/3", "--b", "random:4", "--nmax", "200",
         "--growth", "3", "--digits", "5"),
        ("identities", "--qsum-max", "30", "--qmax", "25", "--tol", "1e-6"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
    def test_header_reruns_to_identical_output(self, run_cli, argv, fmt):
        code, out, err = run_cli(*argv, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            header = json.loads(out)["invocation"]
        else:
            header = next(ln for ln in out.splitlines() if ln.startswith("# "))[2:]
        words = shlex.split(header)
        assert words[:2] == ["tmscaling", argv[0]]
        assert run_cli(*words[1:]) == (code, out, err)
