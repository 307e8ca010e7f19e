import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sqdist import cli
from sqdist.partitions import Partition
from sqdist.spectrum import energy


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands() -> list[str]:
    """The `sqdist ...` lines of the README's CLI block, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [line.split("#")[0].split(maxsplit=1)[1].strip() for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_cli_example_runs(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and out, err


def test_numpy_is_loaded_only_by_verify():
    """A fresh interpreter imports the closed forms and the CLI without numpy;
    `verify` imports the oracle, and so numpy, when it runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sqdist, sqdist.cli, sys; print('numpy' in sys.modules)"
    runs = [["-c", probe], ["-m", "sqdist.cli", "energy", "2,2,1"],
            ["-m", "sqdist.cli", "verify", "--nmax", "3"]]
    done = [
        subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        for argv in runs
    ]
    assert [d.returncode for d in done] == [0, 0, 0], [d.stderr for d in done]
    assert done[0].stdout == "False\n"


def test_verify_without_numpy_names_the_extra():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys; sys.modules['numpy'] = None; from sqdist import cli; "
             "raise SystemExit(cli.run(['verify', '--nmax', '3']))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "error: verify needs numpy: install the oracle extra, pip install 'sqdist[oracle]'\n"
    )


class TestQueries:
    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2,2,1")
        assert code == 0
        payload = json.loads(out)
        eigs = []
        for item in payload["exact"]:
            num, _, den = item["value"].partition("/")
            eigs.extend([int(num) / int(den or 1)] * item["mult"])
        eigs.extend(r["value"] for r in payload["isolated"])
        expected = [
            3 + math.sqrt(13),
            2,
            3 - math.sqrt(13),
            -4,
            -4,
        ]
        assert sorted(eigs) == pytest.approx(sorted(expected), abs=1e-9)

    def test_spectrum_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2,2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,multiplicity,lo,hi,kind"
        assert any(line.startswith("-4,2") for line in lines[1:])

    def test_spectrum_knife_edge_zero(self, capsys):
        # lambda_{s+1} = 0: the zero eigenvalue prints as the point [0, 0]
        code, out, _ = run(capsys, "spectrum", "8,4,4,3,1,1,1")
        assert code == 0
        (zero,) = [r for r in json.loads(out)["isolated"] if r["value"] == 0.0]
        assert zero == {"value": 0.0, "lo": 0.0, "hi": 0.0}

    def test_energy_integer(self, capsys):
        code, out, _ = run(capsys, "energy", "3,2")
        assert code == 0
        assert json.loads(out) == {
            "integer_part": "24",
            "theta": None,
            "value": 24.0,
        }

    def test_energy_theta(self, capsys):
        code, out, _ = run(capsys, "energy", "2,2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["integer_part"] == "16"
        assert payload["theta"] == pytest.approx(math.sqrt(13) - 3, abs=1e-9)
        assert payload["value"] == pytest.approx(10 + 2 * math.sqrt(13), abs=1e-9)

    @pytest.mark.parametrize("parts", [(2, 2, 1), (3, 3)])
    def test_energy_is_report_json(self, capsys, parts):
        code, out, _ = run(capsys, "energy", ",".join(map(str, parts)))
        assert code == 0
        assert json.loads(out) == energy(Partition(parts)).to_json()

    def test_inertia(self, capsys):
        code, out, _ = run(capsys, "inertia", "2,1,1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["n_plus"], payload["n_zero"], payload["n_minus"]) == (1, 1, 2)

    def test_radius(self, capsys):
        code, out, _ = run(capsys, "radius", "3,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(6 + math.sqrt(10), abs=1e-9)
        # value is the full float midpoint of the certified bracket
        assert payload["lo"] <= payload["value"] <= payload["hi"]

    def test_charpoly(self, capsys):
        code, out, _ = run(capsys, "charpoly", "2,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == {"coeffs": ["0", "-5", "1"], "ascending": True}
        assert {"root": -4, "mult": 1} in payload["linear_factors"]
        assert {"root": -1, "mult": 1} in payload["linear_factors"]


class TestSweepsAndChains:
    def test_scan_energy(self, capsys):
        code, out, _ = run(capsys, "scan-energy", "6", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["argmax"] == ["4,1,1"]
        assert payload["violated_claims"] == []

    def test_scan_energy_csv(self, capsys):
        code, out, _ = run(capsys, "scan-energy", "5", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "partition,energy,radius,inertia"

    def test_scan_radius(self, capsys):
        code, out, _ = run(capsys, "scan-radius", "6", "3")
        assert code == 0
        assert json.loads(out)["argmin"] == ["2,2,2"]

    def test_scan_h(self, capsys):
        code, out, _ = run(capsys, "scan-h", "17", "10", "--h", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["h"] == 6
        assert {v["value"] for v in payload["values"]} == {66.0}

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "4,1,1", "2,2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_verify(self, capsys):
        code, out, err = run(capsys, "verify", "--nmax", "6")
        assert code == 0
        assert "0 failures" in err
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["failures"] == 0
        assert all(json.loads(line)["passed"] for line in lines[:-1])


_NO_FLOAT = "a value above 1.8e308 does not fit in a float"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["energy", "0,2"], "all parts must be >= 1, got [0, 2]", id="zero-part"),
            pytest.param(["energy", "2,-1"], "all parts must be >= 1, got [2, -1]", id="negative"),
            # a lone part < 1 is reported as such, not as a single part
            pytest.param(["energy", "0"], "all parts must be >= 1, got [0]", id="lone-zero"),
            pytest.param(["energy", "5"], "need at least two parts, got t = 1", id="single-part"),
            pytest.param(["energy", "1"], "need at least two parts, got t = 1", id="k1"),
            pytest.param(["energy", "2,x"], "cannot parse partition '2,x'", id="letter"),
            pytest.param(["energy", "2,,1"], "cannot parse partition '2,,1'", id="empty-token"),
            pytest.param(["energy", "5,2,"], "cannot parse partition '5,2,'", id="trailing-comma"),
            pytest.param(["energy", ""], "cannot parse partition ''", id="empty-text"),
            pytest.param(["energy", "3_0,1"], "cannot parse partition '3_0,1'", id="underscore"),
            pytest.param(["energy", "\u0663,1"], "cannot parse partition '\u0663,1'", id="arabic-digit"),
            # more digits than int() converts
            pytest.param(["energy", "9" * 4301 + ",1"], f"cannot parse partition '{'9' * 4301},1'",
                         id="4301-digits"),
            pytest.param(["chain", "3,1", "2,2,1"], "totals differ: 4 vs 5", id="totals"),
            pytest.param(["chain", "4,1,1", "3,3"], "lengths differ: 3 vs 2", id="lengths"),
            pytest.param(["chain", "2,2", "3,1"], "2,2 does not strictly majorize 3,1",
                         id="not-majorized"),
            pytest.param(["chain", "2,2", "2,2"], "chain endpoints are equal after sorting",
                         id="identical"),
            pytest.param(["scan-h", "6", "3", "--h", "0"], "need h >= 1 singleton parts, got h=0",
                         id="no-singletons"),
            pytest.param(["verify", "--nmax", "1"], "sweep needs n_max >= 2", id="nmax-below-2"),
            # residual degree 211 on parts of 10^20: a coefficient of 4302 digits
            pytest.param(["charpoly", ",".join(["100000000000000000000"] * 210 + ["1"])],
                         "a coefficient has more than 4300 digits: too large to print",
                         id="charpoly-unprintable"),
            # parts past the float range are refused where a value becomes a float
            pytest.param(["energy", "9" * 320 + ",1"], _NO_FLOAT, id="energy-past-float"),
            pytest.param(["radius", "9" * 320 + ",1"], _NO_FLOAT, id="radius-past-float"),
            pytest.param(["spectrum", "9" * 320 + ",1"], _NO_FLOAT, id="spectrum-past-float"),
            pytest.param(["spectrum", "--csv", "9" * 320 + "," + "9" * 320 + ",1"], _NO_FLOAT,
                         id="spectrum-csv-past-float"),
            pytest.param(["chain", "9" * 320 + ",1", "9" * 319 + "8,2"], _NO_FLOAT,
                         id="chain-past-float"),
            # ... or becomes text: 8(n - t), and n_minus of two such parts, have 4301 digits
            pytest.param(["energy", "9" * 4300 + ",1"],
                         "the integer part has more than 4300 digits: too large to print",
                         id="energy-unprintable"),
            pytest.param(["inertia", "9" * 4300 + "," + "9" * 4300 + ",1"],
                         "an integer has more than 4300 digits: too large to print",
                         id="inertia-unprintable"),
        ],
    )
    def test_domain_refusal(self, capsys, argv, message):
        # every domain refusal exits 1 with its message as the one stderr line
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 190 569 292 partitions of 200 into 100 parts
            ("scan-energy 200 100", "n = 200, t = 100: more than 100000 partitions to scan"),
            # the parameters are checked before the members are counted
            ("scan-energy 10000000000 1", "need n >= t >= 2, got n=10000000000, t=1"),
            (
                "scan-h 10000000000 5 --h 4",
                "need t >= 2, s = t-h >= 2 and n-h >= 2s, got n=10000000000, t=5, h=4",
            ),
            # one member, but a tuple of 100 001 parts
            ("scan-energy 100001 100001", "t = 100001 > 100000 parts in each member"),
            ("scan-radius 100002 100001", "t = 100001 > 100000 parts in each member"),
            ("scan-h 100010 100001 --h 99999", "t = 100001 > 100000 parts in each member"),
            # the parameters are checked before t
            ("scan-energy 5 100001", "need n >= t >= 2, got n=5, t=100001"),
            ("charpoly " + ",".join(["3"] * 1000 + ["2"] * 1000 + ["1"]),
             "residual degree 2001 > 2000: too large to expand"),
        ],
    )
    def test_oversized_scan_is_refused_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", ["scan-energy 1500 1500", "scan-radius 1200 1199"])
    def test_scan_of_thousands_of_parts(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        assert len(json.loads(out)["values"]) == 1

    def test_overlong_chain_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "chain", "1000000000000,1", "500000000001,500000000000")
        assert code == 1 and out == ""
        assert "steps" in err
        assert time.perf_counter() - start < 1.0

    def test_verify_above_max_order_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--nmax", "501")
        assert code == 1 and out == ""
        assert err.startswith("error: nmax = 501")
        assert time.perf_counter() - start < 1.0

    def test_verify_above_the_sweep_cap_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--nmax", "31")
        assert code == 1 and out == ""
        assert err.startswith("error: nmax = 31 > 30")
        assert time.perf_counter() - start < 1.0

    def test_parser_is_built_once(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        first = run(capsys, "inertia", "5,3,2,1")
        assert first[0] == 0 and run(capsys, "inertia", "5,3,2,1") == first

    def test_usage_error_no_args(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run([])
        assert excinfo.value.code == 64

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["frobnicate"])
        assert excinfo.value.code == 64

    def test_usage_error_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["scan-h", "17", "10"])  # missing required --h
        assert excinfo.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--nmax", "3", "--tol", "0"],
            ["radius", "3,2", "--tol", "-0.5"],
            ["radius", "3,2", "--tol", "nan"],
            ["radius", "3,2", "--tol", "abc"],
            ["radius", "3,2", "--tol", "1e-3"],
            ["verify", "--nmax", "3", "--tol", "1e-6"],
        ],
    )
    def test_usage_error_bad_tol(self, capsys, argv):
        # brackets and the Jacobi tolerance are fixed: --tol is no option
        with pytest.raises(SystemExit) as excinfo:
            cli.run(argv)
        assert excinfo.value.code == 64
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and "--tol" in errors[0]

    @pytest.mark.parametrize("argv", ["spectrum 2,2,1", "scan-energy 6 3", "verify --nmax 3"])
    def test_json_is_not_an_option(self, capsys, argv):
        # JSON is the output unless --csv is given
        with pytest.raises(SystemExit) as excinfo:
            cli.run([*argv.split(), "--json"])
        assert excinfo.value.code == 64
        assert "error: unrecognized arguments: --json\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["energy", "inertia", "radius", "charpoly"])
    def test_csv_rejected_on_json_only_commands(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            cli.run([command, "2,2,1", "--csv"])
        assert excinfo.value.code == 64
        assert "--csv" in capsys.readouterr().err
        code, out, _ = run(capsys, command, "2,2,1")
        assert code == 0
        assert json.loads(out)

    def test_main_raises_systemexit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["sqdist", "energy", "3,2"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main()
        assert excinfo.value.code == 0
