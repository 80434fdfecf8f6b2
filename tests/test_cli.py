"""CLI surface tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burststream import ConfigError
from burststream.cli import main, _parse_grid, _parse_listen

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = SCENARIO_DIR.parent / "src"


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


def one_error_line(capsys) -> str:
    """What went to stdout, once stderr is checked to be one ``error:``
    line."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return captured.out


SWEEP_ARGV = ["sweep", "hspa-default", "--rs", "200000,1000000",
              "--t", "0.5:60:0.5", "--b", "100000:5000000:100000"]


class TestSweepOutput:
    def test_stdout_equals_the_out_file(self, capsys, tmp_path):
        assert main(SWEEP_ARGV) == 0
        streamed = capsys.readouterr().out
        out = tmp_path / "surface.csv"
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == streamed
        assert len(streamed.splitlines()) == 1 + 2 * 120 * 50

    def test_closed_stdout_pipe_ends_quietly(self, capsys, monkeypatch):
        # a pipe whose reader has gone: the first write that reaches it
        # raises BrokenPipeError
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(SWEEP_ARGV) == 0
            assert capsys.readouterr().err == ""
            # stdout now points at the null device: what it still buffers
            # flushes without error
            assert os.fstat(write_end).st_rdev == \
                os.stat(os.devnull).st_rdev
            stdout.write("x" * 100_000)
            stdout.flush()

    @pytest.mark.parametrize("where", ["directory", "below_a_file"])
    def test_unusable_out_path_is_one_error_line(self, capsys, tmp_path,
                                                 where):
        (tmp_path / "file").write_text("")
        out = {"directory": tmp_path,
               "below_a_file": tmp_path / "file" / "surface.csv"}[where]
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 1
        assert one_error_line(capsys) == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses writes")
    def test_unwritable_out_path_is_one_error_line(self, capsys):
        assert main(SWEEP_ARGV + ["--out", "/dev/full"]) == 1
        assert one_error_line(capsys) == ""


class TestRunOutput:
    SCENARIO = str(SCENARIO_DIR / "lte-audio-18s.ini")

    def test_out_path_that_is_a_file_is_one_error_line(self, capsys,
                                                        tmp_path):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["run", self.SCENARIO, "--out", str(out)]) == 1
        assert "savings=" in one_error_line(capsys)

    def test_unwritable_output_file_is_one_error_line(self, capsys,
                                                      tmp_path):
        (tmp_path / "radio_states.csv").mkdir()
        assert main(["run", self.SCENARIO, "--out", str(tmp_path)]) == 1
        assert "savings=" in one_error_line(capsys)


class TestClosedStdout:
    """A reader that closes stdout early (``| head -1``) ends every command
    quietly with exit status 0, after the files it writes are written."""

    @staticmethod
    def main_on_a_closed_pipe(capsys, monkeypatch, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
            # stdout now points at the null device: what it still buffers
            # flushes without error
            assert os.fstat(write_end).st_rdev == \
                os.stat(os.devnull).st_rdev

    def test_run(self, capsys, monkeypatch, tmp_path):
        self.main_on_a_closed_pipe(capsys, monkeypatch, [
            "run", str(SCENARIO_DIR / "lte-audio-18s.ini"),
            "--out", str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bursts.csv", "radio_states.csv", "signaling.csv", "stalls.csv"]
        assert (tmp_path / "stalls.csv").read_text() == "start_s,end_s\n"

    def test_compare(self, capsys, monkeypatch):
        self.main_on_a_closed_pipe(capsys, monkeypatch, [
            "compare", str(SCENARIO_DIR / "lte-audio-18s.ini"),
            "lte-drx-default", "lte-drx-longidle"])


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

    def test_run_without_bursts_writes_the_header_alone(self, tmp_path):
        # 10 s of content all go out in the 18 s Fast Start
        scenario = tmp_path / "short.ini"
        scenario.write_text(ini_text(with_key(
            with_key(SCENARIO, "stream", "duration_s", "10"),
            "scenario", "session_s", "10")))
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "bursts.csv").read_text() == \
            "burst_id,quality_bps,T_s,bytes,zwa,bs_opt_bytes,phase\n"

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

    def test_compare_violation_exits_nonzero_under_optimisation(self):
        # ``python -O`` drops assert statements; the check still holds
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "burststream.cli", "compare",
             str(SCENARIO_DIR / "lte-audio-18s.ini"), "lte-drx-default",
             "lte-drx-longidle", "--expect-energy-order",
             "lte-drx-default,lte-drx-longidle"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: expected energy(lte-drx-default)")

    def test_compare_order_naming_an_uncompared_profile(self, capsys,
                                                        monkeypatch):
        from burststream import harness

        def ran(*args):
            pytest.fail("a profile ran before the order was checked")

        monkeypatch.setattr(harness, "run", ran)
        rc = main(["compare", str(SCENARIO_DIR / "lte-audio-18s.ini"),
                   "lte-drx-default", "lte-drx-longidle",
                   "--expect-energy-order", "nosuch,lte-drx-default"])
        assert rc == 1
        assert "nosuch" in error_line(capsys)

    def test_unknown_profile_errors(self):
        rc = main(["sweep", "no-such-profile", "--rs", "1", "--t", "1",
                   "--b", "1"])
        assert rc == 1

    def test_profiles_listing(self, capsys):
        rc = main(["profiles"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hspa-default" in out and "wifi-ref" in out


PROFILE = {"technology": "LTE", "t1_s": "10", "p1_mw": "1216",
           "p_tail_mw": "1216", "a_coeff": "2.25", "r_btc_bps": "16000000"}
SCENARIO = {
    "scenario": {"profile": "lte-drx-default", "session_s": "60",
                 "fast_start_s": "18"},
    "stream": {"bitrate_bps": "128000", "duration_s": "60"},
    "client": {"buffer_bytes": "10000000"},
}


def ini_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in keys.items())
                   for name, keys in sections.items())


def with_key(sections, section, key, value):
    """``sections`` with ``key`` set to ``value``, or dropped if None."""
    out = {name: dict(keys) for name, keys in sections.items()}
    out.setdefault(section, {})[key] = value
    if value is None:
        del out[section][key]
    return out


def error_line(capsys) -> str:
    """The one ``error:`` line on stderr, once stdout is checked empty."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestMalformedFiles:
    """A profile or scenario file with a missing required key, a value that
    is no number, or a value the model rejects is one ``error:`` line
    naming the key, and exit status 1."""

    def test_well_formed_files_run(self, capsys, tmp_path):
        # a % is an ordinary character: no file interpolates
        profile = tmp_path / "good-profile.ini"
        profile.write_text(ini_text({"profile": dict(PROFILE, name="5%")}))
        scenario = tmp_path / "good.ini"
        sections = with_key(SCENARIO, "scenario", "profile", str(profile))
        scenario.write_text(ini_text(with_key(sections, "scenario", "name",
                                              "50%")))
        assert main(["run", str(scenario)]) == 0
        assert capsys.readouterr().out.startswith("50%: ")
        assert main(["sweep", str(profile), "--rs", "500000", "--t", "1",
                     "--b", "1000000"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["scenario", "profile"])
    @pytest.mark.parametrize("fault", ["duplicate key", "duplicate section",
                                       "no section header"])
    def test_unparsable(self, capsys, tmp_path, kind, fault):
        # faults the INI parser finds were each a configparser traceback;
        # they name the file and the key, section or line
        text = ini_text(SCENARIO if kind == "scenario"
                        else {"profile": PROFILE})
        header, first, rest = text.split("\n", 2)
        named, text = {
            "duplicate key": (first.partition(" ")[0],
                              f"{header}\n{first}\n{first}\n{rest}"),
            "duplicate section": (header[1:-1], f"{text}{header}\n"),
            "no section header": (first, f"{first}\n{rest}")}[fault]
        path = tmp_path / "bad.ini"
        path.write_text(text)
        argv = ["run", str(path)] if kind == "scenario" else [
            "sweep", str(path), "--rs", "500000", "--t", "1", "--b",
            "1000000"]
        assert main(argv) == 1
        line = error_line(capsys)
        assert str(path) in line and named in line

    @pytest.mark.parametrize("key, value", [
        ("t1_s", None), ("t1_s", "abc"), ("t1_s", "-1"), ("a_coeff", "0.5"),
        ("pch_enabled", "maybe"), ("p1_mw", "nan"), ("a_coeff", "nan"),
        ("r_btc_bps", "-1"), ("t1_s", "inf"), ("p1_mw", "50%")])
    def test_profile(self, capsys, tmp_path, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(with_key({"profile": PROFILE}, "profile",
                                          key, value)))
        assert main(["sweep", str(path), "--rs", "500000", "--t", "1",
                     "--b", "1000000"]) == 1
        assert key in error_line(capsys)

    @pytest.mark.parametrize("section, key, value", [
        ("stream", "duration_s", "abc"), ("stream", "duration_s", "-5"),
        ("stream", "duration_s", "nan"),
        ("client", "buffer_bytes", None), ("scenario", "profile", None),
        ("scenario", "session_s", None), ("stream", "bitrate_bps", "fast"),
        ("bandwidth", "trace", "0:abc"), ("bandwidth", "trace", "0:-1"),
        ("bandwidth", "trace", "0:nan"),
        ("scenario", "loop_content", "maybe"),
        ("scenario", "session_s", "nan"), ("scenario", "session_s", "-1"),
        ("scenario", "session_s", "inf"), ("client", "buffer_bytes", "0"),
        ("client", "buffer_bytes", "inf"), ("client", "startup_s", "-1"),
        ("scenario", "granularity_s", "0"),
        ("scenario", "granularity_s", "inf"), ("client", "link_bps", "0"),
        ("stream", "bitrate_bps", "nan"), ("stream", "bitrate_bps", "inf"),
        ("stream", "bitrate_bps", "-5"), ("stream", "bitrate_bps", "0"),
        ("stream", "bitrate_bps", "1e308"),
        ("stream", "qualities_bps", "128000,nan"),
        ("stream", "qualities_bps", "128000,1e308"),
        ("scenario", "fast_start_s", "inf"),
        ("client", "buffer_bytes", "50%"),
        # its tolerance took in the whole Fast Start: "fast start
        # sent_bytes" named no key of the file
        ("client", "buffer_bytes", "1e300"),
        ("client", "buffer_bytes", "1e308")])
    def test_scenario(self, capsys, tmp_path, section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(with_key(SCENARIO, section, key, value)))
        assert main(["run", str(path)]) == 1
        assert key in error_line(capsys)

    @pytest.mark.parametrize("section, key, value", [
        ("client", "link_bps", "1e-308"), ("bandwidth", "trace", "0:1e-308"),
        ("profile", "r_btc_bps", "1e-308")])
    def test_rate_too_low_to_end_a_delivery(self, capsys, tmp_path, section,
                                            key, value):
        # each passes every rule at load, but a delivery at that rate would
        # take an endless time: the run ended in an OverflowError traceback.
        # With no trace, the profile's r_btc_bps is the rate offered.
        sections = with_key(SCENARIO, section, key, value)
        if section == "profile":
            shipped = SRC_DIR / "burststream" / "profiles_data"
            profile = tmp_path / "tiny.ini"
            profile.write_text((shipped / "lte-drx-default.ini").read_text()
                               .replace("r_btc_bps = 16000000",
                                        f"r_btc_bps = {value}"))
            sections = with_key(SCENARIO, "scenario", "profile", str(profile))
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(sections))
        assert main(["run", str(path)]) == 1
        assert f"[{section}] {key} rate must be" in error_line(capsys)

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_looped_content_checks_its_duration(self, capsys, tmp_path,
                                                value):
        # looped content is endless, but the file's duration is still read
        sections = with_key(SCENARIO, "scenario", "loop_content", "true")
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(with_key(sections, "stream", "duration_s",
                                          value)))
        assert main(["run", str(path)]) == 1
        assert "duration_s" in error_line(capsys)

    def test_endless_looped_session(self, capsys, tmp_path):
        # looped content with ``session_s = inf`` made ``run`` hang
        sections = with_key(SCENARIO, "scenario", "loop_content", "true")
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(with_key(sections, "scenario", "session_s",
                                          "inf")))
        assert main(["run", str(path)]) == 1
        assert "[scenario] session_s" in error_line(capsys)

    @pytest.mark.parametrize("key, value", [
        ("period_s", "0"), ("period_s", "inf"), ("bytes", "-1"),
        ("phase_s", "-1"), ("phase_s", "inf")])
    def test_background(self, capsys, tmp_path, key, value):
        # ``period_s = 0`` made ``run`` hang
        sections = dict(SCENARIO, background={"period_s": "30",
                                              "bytes": "1000"})
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(with_key(sections, "background", key,
                                          value)))
        assert main(["run", str(path)]) == 1
        assert f"[background]: {key}" in error_line(capsys)

    def test_a_background_period_implying_endless_spans(self, capsys,
                                                        tmp_path):
        # ``period_s = 1e-308`` passed its rule, and the run then grew its
        # background spans until memory ran out
        sections = dict(SCENARIO, background={"period_s": "1e-308",
                                              "bytes": "1000"})
        path = tmp_path / "bad.ini"
        path.write_text(ini_text(sections))
        assert main(["run", str(path)]) == 1
        assert "[background] period_s" in error_line(capsys)


class TestProxyOptions:
    """An out-of-range proxy option is one ``error:`` line and exit status
    1, before the proxy is built."""

    @pytest.mark.parametrize("flag, text", [
        ("--fast-start-seconds", "0"), ("--fast-start-seconds", "nan"),
        ("--fast-start-seconds", "inf"), ("--granularity-s", "0"),
        ("--granularity-s", "nan"), ("--backpressure-s", "0"),
        ("--backpressure-s", "inf"), ("--rate-override-bps", "-1"),
        ("--rate-override-bps", "inf"), ("--origin", "127.0.0.1:9"),
        ("--origin", "http://127.0.0.1:abc")])
    def test_out_of_range_is_an_error_line(self, capsys, monkeypatch, flag,
                                           text):
        from burststream import proxy

        def started(config):
            pytest.fail(f"proxy started with {flag} {text}")

        monkeypatch.setattr(proxy, "ShapingProxy", started)
        assert main(["proxy", "--listen", "127.0.0.1:0", flag, text]) == 1
        assert flag[2:].replace("-", "_") in error_line(capsys)

    @pytest.mark.parametrize("field, value", [
        ("low_bw_chunk_s", 0.0), ("low_bw_chunk_s", math.inf),
        ("sndbuf_bytes", 0)])
    def test_fields_without_a_flag_are_checked(self, field, value):
        from burststream.proxy import SessionConfig
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: value})
