import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tracemalloc

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tmscaling import cli, exponents, numtheory, riesz, streams, wavenumber
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


class TestJsonWriter:
    """Every verb's json goes through one writer that emits encoder chunks in batches."""

    @pytest.mark.parametrize("argv", [
        "exponent --k 3/17",
        "gfun --q 15",
        "table --qmax 60",
        "figure --qmax 30",
        "riesz-trace --k 1/9 --nmax 40",
        "weyl --stream random:1 --samples 300",
        "perturb --k 1/5 --nmax 90",
        "mix --a rational:1/3 --b random:4 --nmax 200",
        "identities --qsum-max 30 --qmax 25",
    ])
    def test_json_written_in_batches_is_json_dumps(self, run_cli, monkeypatch, argv):
        monkeypatch.setattr(cli, "_ORBIT_SLICE", 3)
        code, out, _ = run_cli(*shlex.split(argv), "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestSlicedWriter:
    """csv and plain go out ``_ORBIT_SLICE`` lines, trace rows or orbit residues at a time."""

    @pytest.mark.parametrize("argv", [
        "exponent --k 1/1019",
        "exponent --k 1/1019 --r 2",
        "exponent --k 1/1019 --format csv",
        "riesz-trace --k 1/9 --nmax 40",
        "riesz-trace --k 1/9 --nmax 40 --format plain",
        "perturb --k 1/5 --nmax 90",
        "mix --a rational:1/3 --b random:4 --nmax 200",
    ])
    def test_bytes_do_not_depend_on_the_slice(self, run_cli, monkeypatch, argv):
        code, expected, _ = run_cli(*shlex.split(argv))
        assert code == 0
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(cli, "_ORBIT_SLICE", size)
            assert run_cli(*shlex.split(argv)) == (0, expected, ""), size


class _Discard(io.TextIOBase):
    """A stdout that keeps none of the text written to it."""

    def write(self, text):
        return len(text)


def _traced_peak(call):
    """``call()``'s result and the peak bytes tracemalloc sees meanwhile, stdout discarded."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOutputMemory:
    """Printing holds one slice of text, not the whole output."""

    def test_exponent_prints_its_orbit_within_a_mebibyte_of_computing_it(self):
        _, computing = _traced_peak(lambda: exponents.beta_rational("1/1000003"))
        code, printing = _traced_peak(lambda: main(["exponent", "--k", "1/1000003"]))
        assert code == 0
        assert printing < computing + 2**20

    def test_trace_prints_within_four_times_its_samples(self):
        n = 262144
        code, peak = _traced_peak(lambda: main(["riesz-trace", "--k", "1/9", "--nmax", str(n)]))
        assert code == 0
        assert peak < 4 * n * 24      # a sample is an int64 level and two float64s

    def test_a_rational_trace_prints_within_a_few_slices(self):
        # its rows are evaluated from the period one slice at a time; all 2**20
        # samples (an int64 level and two float64s each) would take 24 MiB
        code, peak = _traced_peak(lambda: main(["riesz-trace", "--k", "1/9",
                                                "--nmax", str(2**20)]))
        assert code == 0
        assert peak < 8 * 2**20


class TestClosedStdout:
    """A reader that stops early (``| head -1``) gets exit 1 and no traceback."""

    # each prints megabytes, far more than a pipe buffers: str lines, the
    # orbit line in pieces, and the json in pieces
    @pytest.mark.parametrize("argv", [
        "riesz-trace --k 1/9 --nmax 200000",
        "exponent --k 1/1000003",
        "exponent --k 1/1000003 --format json",
    ])
    def test_exits_1_with_empty_stderr(self, argv):
        child = subprocess.Popen([sys.executable, "-m", "tmscaling", *shlex.split(argv)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith((b"# tmscaling", b"{"))
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (1, b"")


class TestGfunCommand:
    def test_value(self, run_cli):
        code, out, _ = run_cli("gfun", "--q", "9")
        assert code == 0
        assert "g(9) = -0.207519" in out

    def test_even_q_exits_2(self, run_cli):
        code, _, err = run_cli("gfun", "--q", "4")
        assert code == 2
        assert "error" in err

    def test_q_beyond_the_float_range_exits_2_naming_q(self, run_cli):
        # 401 digits: argparse takes it, and q - 1 does not convert to a float
        code, out, err = run_cli("gfun", "--q", str(10 ** 400 + 1))
        assert code == 2 and out == ""
        assert (f"tmscaling: error: --q {10 ** 400 + 1}: q - 1 overflows a float: "
                "q has 1329 bits") in err
        assert "Traceback" not in err


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
        assert "--nmax 5 --every 10: --every is larger than --nmax" in err

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

    The first eleven digests were taken from the per-sample formatting
    that preceded the columnar trace (one ``format_float`` call per value),
    so they pin every byte of the CSV and JSON renderings.  The last three
    of those pin the labels and descriptions of flipped and block-mixed
    streams; they were taken while ``flipped`` still took any container of
    positions and ``block_mixed`` an explicit schedule.  The rest pin every
    other format of these verbs, at the default ``--digits`` and at 12,
    before the verbs stopped writing their own output.
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
        ("weyl --stream random:4 --samples 3000",
         "77ae5a81ad384e9558a7dd376a89dc76a283bd5e027626ea7c3752fbb5db0142"),
        ("weyl --stream random:4 --samples 3000 --format csv",
         "9523fa4f1ce4d22c4264311e0e9569d9118c6e4d53c2a0b395b2ea75f0b819d1"),
        ("weyl --stream rational:3/11 --samples 2000 --harmonics 3 --digits 12",
         "75a6fbe67bfa2eac2543208b8730e12b606f5294192f556f4d7ec28fe826270b"),
        ("weyl --stream rational:3/11 --samples 2000 --harmonics 3 --format csv --digits 12",
         "f91d2d6363a905076e90faf1b12e467cac037f02d8e9f55cd9409de6c64686e0"),
        ("riesz-trace --k 1/9 --nmax 200 --format plain",
         "58b548f4f5e1bfae2d937e07190efecf891686ddd2eea3cae037a7183c9b4e16"),
        ("riesz-trace --k random:2 --nmax 500 --every 3 --format plain --digits 12",
         "7c7f26b28508b408a08185cdfb3dbbc54df954b369549893ce8f91234f6e5889"),
        ("perturb --k 1/3 --nmax 5000 --format plain",
         "b3c677a75962c55ddc0790313bff4ad5fbeab2da162378d598a943d88d1744b1"),
        ("perturb --k 1/7 --nmax 3000 --flip-start 2 --format plain --digits 12",
         "4339e590f80b3da0039ee0ca3d9da440c8ee9197d05fdb12b15766481e82b4b4"),
        ("mix --a rational:1/3 --b random:7 --nmax 5000 --format plain",
         "0f8090b2bc33442172f3f5609459362133cbfac1cffdf6a00284427ebe3ed8b1"),
        ("mix --a random:1 --b flipped:1/5:1 --growth 3 --nmax 4000 --format plain --digits 12",
         "eab5b2131beb36f3213da073ec184dcc96a3808bd773b39ad6d978eb966872da"),
    ])
    def test_stdout_digest(self, run_cli, argv, digest):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExactGoldenOutput:
    """Whole stdout of exact-orbit commands, pinned by sha256.

    The first five digests were taken while ``doubling_orbit`` still
    returned a list and the orbit line joined ``str`` of each residue; the
    last two of those orbits have moduli above 2**31, whose residues are
    Python ints.  The rest pin every other format of these verbs, at the
    default ``--digits`` and at 12, before the verbs stopped writing their
    own output.  The ``--tol 1e-30`` identity checks fail, so they exit 3.
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
        ("gfun --q 15",
         "8a885718338f60a9d366ef0c880c28848fbce964e615eed6389a02dd85478447"),
        ("gfun --q 15 --format csv",
         "fee220a724e34df3c97a06a6536040263a64e3cd35c69daabe20ba93039bb91f"),
        ("gfun --q 15 --format json",
         "707742e738967c82f29f6069f01b208f9f4a8966d38448238419275377d1d818"),
        ("gfun --q 1001 --digits 12",
         "7a33ed193dc324deb27f5d1eb8275e2919d2fd7aaba67d918065310354a41ced"),
        ("gfun --q 1001 --format csv --digits 12",
         "8c5ac079e144082dc14ea6e6a3947b6663cf0e25567d62ed60daf2eca4dd3bb0"),
        ("gfun --q 1001 --format json --digits 12",
         "67d8d4fd83dbd12c7ebcaf978179794f0ca8d964546635bf0379754024ddd1ce"),
        ("table --qmax 200 --format plain",
         "b4aedd74b494eebed99293bb56147dbba1600c4d0e1be271ea18e8dc4fe8da80"),
        ("table --qmax 200 --format json",
         "33c2189f91a07e0360096cd62994a69aeeb24a8daef9fb2d4be67a680903e5bd"),
        ("table --qmax 200 --format plain --digits 12",
         "c2d48ca133ebee8fe226f21930af70cbc077b4841b857bdeb0c83592e5b359a3"),
        ("table --qmax 200 --format json --digits 12",
         "c7c6ba71761dc92e2d2eee22655133822c1c33b4fe7a810ddbc0f1cb3fce966f"),
        ("figure --qmax 200 --format plain",
         "a018489c0d63215bc2a922fc4433374dd02acd0c45ee873ac5dcba2fb2f4644a"),
        ("figure --qmax 200 --format json",
         "4a31c3b6bf866eac5ad114fb48e2be54a9e2e9c4026e5564a002b3b01df977e3"),
        ("figure --qmax 200 --format plain --digits 12",
         "df42c09ba9f72096354e907c087c2bac29ab946befc760ea307aed1d2d6e0ee6"),
        ("figure --qmax 200 --format json --digits 12",
         "902b8ddb74315a7d836340c6a2ded9e69d06305084d16e21684a982e7daf576a"),
        ("identities --qsum-max 60 --qmax 75",
         "68f8f443f35e67f29c1a26c8436da2ed9ebb7d69c273df10b2ed56eeae15ac51"),
        ("identities --qsum-max 60 --qmax 75 --format csv",
         "6c3eb4e9c0012da4180fede215a609ad72284d51d8fd1755d01e92d182f0a5a6"),
        ("identities --qsum-max 60 --qmax 75 --format json",
         "e397d1aa5ebc18565272280a64c4503817a13f3aa16d1f08b972133712f3e8df"),
        ("identities --qsum-max 60 --qmax 75 --tol 1e-30",
         "eacd27ad22a76b2db382168168f4c1a5c1e01d782fbd99e60e0275b88a67bfd6"),
        ("identities --qsum-max 60 --qmax 75 --tol 1e-30 --format csv",
         "020917c29f07b762a6a3e25d1ee4f576861b20b0c58771058b60039740490c4b"),
        ("identities --qsum-max 60 --qmax 75 --tol 1e-30 --format json",
         "d32ee9fb0c92c624b9a77abdae85cb87c080548d2218abe8538113c8b4d07ccd"),
        ("exponent --k 3/17 --format csv",
         "d924369c73d2767776bb4efbabb0a14b36780c525189de7f74cd29c3149ead5a"),
        ("exponent --k 5/4097 --format csv --digits 12",
         "5f10f8cf2c19d880e27f15eda98d0cde04968a1eac70ca5a81f08f3fa143d378"),
        ("exponent --k 1/8",
         "cb78386a0579e6454deb49e0e630353615fdcb2b99fd10d7cacd884f4792fe29"),
        ("exponent --k 1/8 --format csv",
         "51c915e91cd46de8a0e9f8b0b88360b3441fb9605f7168e7f421882a7514d2f6"),
        ("exponent --k 1/8 --format json",
         "293e7113df9f17f0a3402dd91b1d1afd3286a4e3ef128815157df9430e8a8258"),
        ("exponent --k 3/17 --r 2",
         "888bef03bc1d893fd821aebdbae92a179e3167691a3ef22a83e5a659c023a5f4"),
        ("exponent --k 3/17 --r 2 --format csv --digits 12",
         "68b6c04b243b456c1f2854f0d38a9eb972ea4c77b1f2a93b79c4969b4464f540"),
        ("exponent --k 3/17 --r 2 --format json --digits 12",
         "c4513c3a2c479324cbd08fa2712236937e5a1f7b606743178041d8045ae9555f"),
    ])
    def test_stdout_digest(self, run_cli, argv, digest):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == (3 if "FAIL" in out else 0) and err == ""
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
        (("weyl", "--stream", "random:1", "--samples", "16", "--harmonics", "65"),
         "--harmonics"),
    ])
    def test_out_of_range_value_exits_2_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        bound = "<= 64" if argv[-1] == "65" else ">="
        assert f"argument {flag}: must be {bound}" in err

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


class TestRefusals:
    """A value argparse takes but a verb refuses exits 2 naming the verb's options."""

    @pytest.mark.parametrize("argv, options", [
        ("perturb --k 1/4", "--k 1/4 --nmax 4096 --flip-start 1"),
        ("perturb --k 0.25", "--k 0.25 --nmax 4096 --flip-start 1"),
        ("exponent --k abc", "--k abc --r 0"),
        ("exponent --k 3/0", "--k 3/0 --r 0"),
        ("riesz-trace --k abc", "--k abc --nmax 60 --every 1"),
        ("weyl --stream random:", "--stream random: --samples 16384 --harmonics 5"),
        ("weyl --stream flipped:1/0", "--stream flipped:1/0 --samples 16384 --harmonics 5"),
        ("mix --a foo --b random:1", "--a foo --b random:1 --nmax 65536 --growth 4"),
        ("mix --a random:1 --b rational:1/0",
         "--a random:1 --b rational:1/0 --nmax 65536 --growth 4"),
        ("exponent --k=-abc --r 2 --format json", "--k=-abc --r 2"),
    ])
    def test_refusal_names_the_options(self, run_cli, argv, options):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == 2 and out == ""
        assert err.startswith(f"tmscaling: error: {options}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        ("table --qmax abc", "argument --qmax: invalid integer: 'abc'"),
        ("identities --tol abc", "argument --tol: invalid number: 'abc'"),
        ("exponent --k=--", "argument --k: expected one argument"),
        ("identities --qsum-max=--", "argument --qsum-max: expected one argument"),
    ])
    def test_argparse_refusal_names_the_flag(self, run_cli, argv, message):
        code, out, err = run_cli(*shlex.split(argv))
        assert code == 2 and out == ""
        assert message in err

    TEXT = st.builds(str.__add__, st.sampled_from(["", "random:", "rational:", "flipped:", "1/"]),
                     st.one_of(st.text(max_size=6), st.text("0123456789/:-.e", max_size=6)))

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from([
        ("--k", ["exponent"]),
        ("--k", ["riesz-trace", "--nmax=8"]),
        ("--k", ["perturb", "--nmax=8"]),
        ("--stream", ["weyl", "--samples=8"]),
        ("--a", ["mix", "--b=random:1", "--nmax=8"]),
        ("--b", ["mix", "--a=random:1", "--nmax=8"]),
    ]), text=TEXT)
    def test_any_text_is_taken_or_refused_naming_the_flag(self, case, text):
        # hypothesis runs many examples per call, which a function-scoped capsys cannot follow
        flag, argv = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, f"{flag}={text}"])
            except SystemExit as exc:   # argparse refuses "--flag=--"
                code = exc.code
        assert code in (0, 2)
        if code == 2:
            quoted = shlex.quote(text)
            pair = f"{flag}={quoted}" if quoted.startswith("-") else f"{flag} {quoted}"
            reason = err.getvalue().partition("error: ")[2]
            assert reason.startswith(f"argument {flag}: ") or f" {pair} " in f" {reason}"
            for raw in ("invalid literal", "could not convert", "Traceback", "Exceeds the limit"):
                assert raw not in reason


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

    def test_k_too_long_to_print_exits_2_naming_k_and_r(self, run_cli, int_str_limit):
        # 2**10000 * q has 3011 + 1300 digits, past the 4300-digit limit
        k = f"1/{10**1299 + 1}"
        code, out, err = run_cli("exponent", "--k", k, "--r", "10000")
        assert code == 2 and out == ""
        assert f"--k {k} --r 10000: k has too many digits to print" in err
        assert "Exceeds the limit" not in err

    @pytest.mark.parametrize("argv, flag", [
        (("riesz-trace", "--k", f"1/{3 * 2**2000}", "--nmax", "3"), "--k"),
        (("riesz-trace", "--k", "5e-324", "--nmax", "3"), "--k"),
        (("riesz-trace", "--k", "1.1125369292536007e-308", "--nmax", "3"), "--k"),  # 2**-1023
        (("weyl", "--stream", f"rational:1/{3 * 2**2000}", "--samples", "3"), "--stream"),
    ])
    def test_levels_below_the_float_range_exit_2_naming_the_flag(self, run_cli, argv, flag):
        # no normal float holds the distance of level 0, so no log factor may be printed
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err.startswith(f"tmscaling: error: {flag} {argv[2]}")
        assert "level 0 of k comes within 2**-1022 of an integer without reaching it" in err

    @pytest.mark.parametrize("k", ["1e-330", "1e-400"])
    def test_a_literal_that_rounds_to_zero_exits_2_naming_k(self, run_cli, k):
        # k is not 0, so it must not be traced as the extinct wave number 0
        code, out, err = run_cli("riesz-trace", "--k", k, "--nmax", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"tmscaling: error: --k {k} --nmax 3 --every 1: ")
        assert "rounds to the float 0.0" in err

    @pytest.mark.parametrize("k", ["0.0", "-0.0", "0e5"])
    def test_a_zero_literal_traces_zero(self, run_cli, k):
        code, out, err = run_cli("riesz-trace", f"--k={k}", "--nmax", "3")
        assert code == 0 and err == ""
        assert out.splitlines()[1:3] == ["# wave_number = 0", "# extinct_at = 0"]

    def test_levels_at_the_edge_of_the_float_range_are_printed(self, run_cli):
        code, out, err = run_cli("riesz-trace", "--k", "2.2250738585072014e-308",  # 2**-1022
                                 "--nmax", "3")
        assert code == 0 and err == ""
        assert "inf" not in out and "nan" not in out

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

    @pytest.mark.parametrize("argv, flag", [
        (("weyl", "--stream", "random:1", "--samples"), "--samples"),
        (("perturb", "--k", "1/3", "--nmax"), "--nmax"),
        (("mix", "--a", "rational:1/3", "--b", "random:1", "--nmax"), "--nmax"),
    ])
    def test_stream_levels_above_the_budget_exit_2_naming_the_flag(self, run_cli, argv, flag):
        code, out, err = run_cli(*argv, str(wavenumber.MAX_STREAM_LEVELS + 1))
        assert code == 2 and out == ""
        assert f"argument {flag}: must be <= {wavenumber.MAX_STREAM_LEVELS}" in err

    def test_stream_trace_above_the_budget_exits_2_before_any_digit(self, run_cli, monkeypatch):
        monkeypatch.setattr(streams.DigitStream, "digits", mock.Mock(side_effect=AssertionError))
        n = wavenumber.MAX_STREAM_LEVELS + 1
        code, out, err = run_cli("riesz-trace", "--k", "random:1", "--nmax", str(n),
                                 "--every", str(n))
        assert code == 2 and out == ""
        assert f"--k random:1 --nmax {n} --every {n}: " in err
        assert f"MAX_STREAM_LEVELS = {wavenumber.MAX_STREAM_LEVELS}" in err

    def test_dyadic_trace_stops_at_extinction(self):
        # 1000 recorded levels up to 10**14: the walk ends in the first block
        argv = ["riesz-trace", "--k", "1/4", "--nmax", str(10 ** 14), "--every", str(10 ** 11)]
        done = subprocess.run([sys.executable, "-m", "tmscaling", *argv],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        lines = done.stdout.splitlines()
        assert lines[1:4] == ["# wave_number = 1/4", "# extinct_at = 2", riesz.TRACE_CSV_HEADER]
        assert lines[4:] == [f"{n * 10 ** 11},-inf,-inf" for n in range(1, 1001)]

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
    def test_table_bytes_stable_across_runs(self):
        def run():
            return subprocess.run(
                [sys.executable, "-m", "tmscaling", "table", "--qmax", "120"],
                capture_output=True, check=True).stdout
        assert run() == run()


class TestParserOnce:
    """``main`` builds its parser on its first call and reuses it."""

    def test_build_parser_runs_once_over_several_main_calls(self, run_cli, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        built = mock.Mock(side_effect=cli.build_parser)
        monkeypatch.setattr(cli, "build_parser", built)
        assert run_cli("gfun", "--q", "9")[0] == 0
        assert run_cli("table", "--qmax", "0")[0] == 2
        assert run_cli("riesz-trace", "--k", "1/3", "--nmax", "5", "--every", "10")[0] == 2
        assert run_cli("exponent", "--k", "3/17")[0] == 0
        assert built.call_count == 1

    # argparse refusals, a verb's refusal and help, each after a good call
    @pytest.mark.parametrize("argv", [
        "table --qmax 0",
        "weyl --stream random:1 --samples 0",
        "riesz-trace --k 1/3 --nmax 5 --every 10",
        "exponent",
        "nosuchverb",
        "--help",
        "riesz-trace --help",
    ])
    def test_a_reused_parser_prints_what_a_fresh_process_prints(self, run_cli, monkeypatch,
                                                                argv):
        monkeypatch.setenv("COLUMNS", "80")     # help wraps at the terminal width
        assert run_cli("riesz-trace", "--k", "1/9", "--nmax", "40")[0] == 0
        child = subprocess.run([sys.executable, "-m", "tmscaling", *shlex.split(argv)],
                               capture_output=True, text=True, timeout=60)
        assert run_cli(*shlex.split(argv)) == (child.returncode, child.stdout, child.stderr)


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
