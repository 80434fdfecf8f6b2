"""CLI surface tests."""

from pathlib import Path

import pytest

from burststream import ConfigError
from burststream.cli import main, _parse_grid, _parse_listen

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestGridParsing:
    def test_comma_list(self):
        assert _parse_grid("1,2,5") == [1.0, 2.0, 5.0]

    def test_range(self):
        assert _parse_grid("1:5:2") == [1.0, 3.0, 5.0]

    def test_range_default_step(self):
        assert _parse_grid("1:3") == [1.0, 2.0, 3.0]

    def test_single_point_range(self):
        assert _parse_grid("2:2:1") == [2.0]

    @pytest.mark.parametrize("text", [
        "1:10:0", "1:10:-1", "10:1:1", "10:1", "1:2:3:4", "1:inf:1",
        "nan:5", "1:x", "1,,2", "1,nan", "inf"])
    def test_bad_grid_rejected(self, text):
        with pytest.raises(ConfigError):
            _parse_grid(text)


class TestListenParsing:
    def test_host_and_port(self):
        assert _parse_listen("0.0.0.0:8800") == ("0.0.0.0", 8800)
        assert _parse_listen(":0") == ("127.0.0.1", 0)
        assert _parse_listen("::1:65535") == ("::1", 65535)

    @pytest.mark.parametrize("text", [
        "127.0.0.1:http", "127.0.0.1:", "127.0.0.1", "127.0.0.1:8.5",
        "127.0.0.1:65536", "127.0.0.1:-1"])
    def test_bad_port_rejected(self, text):
        with pytest.raises(ConfigError):
            _parse_listen(text)

    @pytest.mark.parametrize("text", ["127.0.0.1:http", "127.0.0.1:70000"])
    def test_proxy_exits_nonzero_with_error_line(self, capsys, text):
        # fails before any socket is opened
        assert main(["proxy", "--listen", text]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "port" in lines[0]


GOOD_GRID = {"--rs": "500000", "--t": "1:10:1", "--b": "1000000"}


class TestSweepErrors:
    """A bad grid or a grid point outside the model's domain is one
    ``error:`` line and exit status 1, never a traceback or a hang."""

    @pytest.mark.parametrize("flag, text", [
        ("--t", "1:10:0"),          # step 0: a range without end
        ("--t", "1:10:-0.5"),
        ("--t", "10:1:1"),          # start above stop
        ("--b", "1:2:3:4"),         # four parts
        ("--rs", "1:inf:1"),        # endless range
        ("--t", "1,nan"),           # would price as nan
        ("--rs", "25000000"),       # above wifi-ref's 20 Mbit/s bulk rate
        ("--rs", "0,500000"),       # r_s not positive
        ("--t", "0,1"),             # T not positive
        ("--b", "-5,1000000"),      # B not positive
    ])
    def test_exits_one_with_error_line(self, capsys, tmp_path, flag, text):
        grid = dict(GOOD_GRID, **{flag: text})
        argv = ["sweep", "wifi-ref", "--out", str(tmp_path / "surface.csv")]
        argv += [f"{name}={value}" for name, value in grid.items()]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "surface.csv").exists()


class TestCommands:
    def test_run_scenario(self, capsys, tmp_path):
        rc = main(["run", str(SCENARIO_DIR / "lte-audio-18s.ini"),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "savings=" in out
        assert (tmp_path / "bursts.csv").exists()
        assert (tmp_path / "radio_states.csv").read_text().startswith(
            "start_s,end_s,state,power_mw")
        assert (tmp_path / "signaling.csv").exists()
        assert (tmp_path / "stalls.csv").exists()

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "surface.csv"
        rc = main(["sweep", "wifi-ref", "--rs", "500000",
                   "--t", "1:10:1", "--b", "1000000,10000000",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == \
            "technology,r_s_bps,buffer_bytes,interval_s,avg_power_mw"
        assert len(lines) == 1 + 20

    def test_compare_ordering_enforced(self, capsys):
        rc = main(["compare", str(SCENARIO_DIR / "lte-audio-18s.ini"),
                   "lte-drx-default", "lte-drx-longidle",
                   "--expect-energy-order",
                   "lte-drx-longidle,lte-drx-default"])
        assert rc == 0
        assert "lte-drx-longidle" in capsys.readouterr().out

    def test_compare_violation_exits_nonzero(self, capsys):
        rc = main(["compare", str(SCENARIO_DIR / "lte-audio-18s.ini"),
                   "lte-drx-default", "lte-drx-longidle",
                   "--expect-energy-order",
                   "lte-drx-default,lte-drx-longidle"])
        assert rc == 1

    def test_unknown_profile_errors(self):
        rc = main(["sweep", "no-such-profile", "--rs", "1", "--t", "1",
                   "--b", "1"])
        assert rc == 1

    def test_profiles_listing(self, capsys):
        rc = main(["profiles"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hspa-default" in out and "wifi-ref" in out
