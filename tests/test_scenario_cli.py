import gc
import pathlib
import tracemalloc

import pytest

from test_golden import golden_bytes

from cloaknic.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from cloaknic.demos import DEMOS, TEST_KEY_HEX, interpret
from cloaknic.scenario import (
    MissingKey,
    ParseError,
    Scenario,
    UnknownNodeReference,
    parse_scenario,
    run_scenario,
    validate_scenario,
)

VECTOR_FILE = pathlib.Path(__file__).parent / "data" / "knock_vectors.txt"
# 5,000 vectors are about 1 MB of text; writing them may hold a few lines at
# a time beyond the starting size, not the whole text.
VECTORS = 5000
VECTORS_PEAK = 512 << 10

GOOD = DEMOS["happy-path"]

# GOOD plus a plain host `plain` and an attacker `m`, ending in [steps]
WITH_STEPS = GOOD + ("[nodes]\nplain plainhost 10.0.0.3 aa:00:00:00:00:03\n"
                     "m attacker 10.0.0.66 aa:00:00:00:00:66\n[steps]\n")
STEP_LINE = len(WITH_STEPS.splitlines()) + 1

# An attacker told to replay a knock before any was sent: it sends nothing.
NOTHING_CAPTURED = """\
[nodes]
server cloaked 10.0.0.2 aa:00:00:00:00:02
mallory attacker 10.0.0.66 aa:00:00:00:00:66
[steps]
5 attack mallory knockreplay
[horizon]
60
"""

# Inputs that `check` once accepted although `run` crashed on them or ran
# them wrongly, or that crashed both; each with the line at fault.
DEFECTS = {step: (WITH_STEPS + step + "\n", STEP_LINE) for step in (
    "5 ping plain server",                   # a plain host cannot perform steps
    "5 ping server plain",                   # nor can a cloaked server
    "5 attack m portscan server",            # no port range
    "5 attack m arppoison server",           # no claimed IP and MAC
    "5 attack m arppoison server 10.0.0.1 de:ad:be:ef:00:01 period=x",
    "5 send client server tcp 70000 22",     # ports are 16-bit
    "5 send client server udp 1 -1",
    "5 send client server tcp 0 22",         # a knock seals a source port >= 1
    "5 attack m macspoof server cnt=3",      # misspelt option
    "5 attack m macspoof server count=100000000 period=0",  # every firing at one tick
)}
DEFECTS["services=70000,-1"] = (GOOD.replace("services=22", "services=70000,-1"), 3)
# a knock sealed at tick 2**64 has no 64-bit timestamp
DEFECTS["horizon=2**64"] = (WITH_STEPS + f"{2**64 - 2} send client server tcp 40000 22\n"
                            f"[horizon]\n{2**64}\n", STEP_LINE + 2)


class TestParse:
    def test_happy_path_parses(self):
        sc = parse_scenario(GOOD)
        validate_scenario(sc)
        assert set(sc.nodes) == {"server", "client"}
        assert sc.horizon == 60

    def test_all_demos_validate(self):
        for text in DEMOS.values():
            validate_scenario(parse_scenario(text))

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_scenario("[bogus]\n")

    def test_content_before_section(self):
        with pytest.raises(ParseError):
            parse_scenario("server cloaked 10.0.0.2 aa:00:00:00:00:02\n")

    def test_bad_key_length(self):
        bad = GOOD.replace(TEST_KEY_HEX, "aabb")
        with pytest.raises(ParseError):
            parse_scenario(bad)

    def test_unknown_node_reference_names_line(self):
        bad = GOOD + "\n[steps]\n7 send mallory server tcp 1 2\n"
        sc = parse_scenario(bad)
        with pytest.raises(UnknownNodeReference) as err:
            validate_scenario(sc)
        assert "mallory" in str(err.value)
        assert err.value.line_no is not None

    @pytest.mark.parametrize("step", [
        "5 send client ghost tcp 40000 22",
        "5 ping client ghost",
        "5 attack m ping ghost",
        "5 attack m portscan ghost 1-2",
        "5 attack m arppoison ghost 10.0.0.1 de:ad:be:ef:00:01",
        "5 attack m macspoof ghost",
    ], ids=["send", "ping", "attack-ping", "portscan", "arppoison", "macspoof"])
    def test_undefined_target_names_line(self, step):
        sc = parse_scenario(WITH_STEPS + step + "\n")
        with pytest.raises(UnknownNodeReference) as err:
            validate_scenario(sc)
        assert "ghost" in str(err.value)
        assert err.value.line_no == STEP_LINE

    def test_knock_replay_names_no_target(self):
        validate_scenario(parse_scenario(WITH_STEPS + "5 attack m knockreplay\n"))

    def test_protected_without_key(self):
        bad = "\n".join(line for line in GOOD.splitlines()
                        if TEST_KEY_HEX not in line) + "\n"
        sc = parse_scenario(bad)
        with pytest.raises(MissingKey):
            validate_scenario(sc)

    def test_duplicate_node_name(self):
        bad = GOOD.replace("client client", "server client", 1)
        with pytest.raises(ParseError):
            parse_scenario(bad)

    @pytest.mark.parametrize("mutant", [
        GOOD.replace("tcp", "icmp"),
        GOOD.replace("[horizon]\n60", "[horizon]\nsoon"),
        GOOD.replace("aa:00:00:00:00:02", "aa:00:00:00:02"),
        GOOD.replace("10.0.0.2", "10.0.0.256"),
        GOOD.replace("5 send client server tcp 40000 22",
                     "5 teleport client server"),
    ])
    def test_malformed_mutants_rejected(self, mutant):
        with pytest.raises(ParseError):
            parse_scenario(mutant)


class TestCheckRunParity:
    """`check` accepts exactly the inputs `run` accepts."""

    CORPUS = list(DEMOS.values()) + [
        GOOD.replace("tcp", "icmp"),                     # bad protocol
        GOOD + "\n[steps]\n9 send ghost server tcp 1 2\n",  # unknown node
        GOOD.replace(TEST_KEY_HEX, "00"),                # short key
        "[nodes]\nx cloaked 1.2.3.4 aa:bb:cc:dd:ee:ff\n[protected]\nx x\n",
    ] + [text for text, _line in DEFECTS.values()]

    def test_parity(self, tmp_path):
        for i, text in enumerate(self.CORPUS):
            path = tmp_path / f"sc{i}.txt"
            path.write_text(text)
            check_rc = main(["check", "--scenario", str(path)])
            run_rc = main(["run", "--scenario", str(path), "--quiet",
                           "--trace", str(tmp_path / "t"), "--metrics", str(tmp_path / "m")])
            assert (check_rc == 0) == (run_rc == 0), f"corpus item {i} diverged"

    @pytest.mark.parametrize("text, line_no", DEFECTS.values(), ids=DEFECTS)
    def test_defect_rejected_by_both_naming_line(self, text, line_no, tmp_path, capsys):
        path = tmp_path / "sc.txt"
        path.write_text(text)
        for argv in (["check"], ["run", "--quiet"]):
            assert main(argv + ["--scenario", str(path)]) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")


class TestCli:
    def test_check_ok(self, tmp_path, capsys):
        path = tmp_path / "sc.txt"
        path.write_text(GOOD)
        assert main(["check", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"

    def test_check_invalid_exit_1(self, tmp_path, capsys):
        path = tmp_path / "sc.txt"
        path.write_text(GOOD + "\n[steps]\n9 send ghost server tcp 1 2\n")
        assert main(["check", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "ghost" in err

    def test_knock_replay_with_nothing_captured_runs(self, tmp_path, capsys):
        """A scenario `check` accepts runs to completion."""
        path, metrics = tmp_path / "sc.txt", tmp_path / "metrics.txt"
        path.write_text(NOTHING_CAPTURED)
        assert main(["check", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "ok\n"
        assert main(["run", "--scenario", str(path), "--quiet",
                     "--metrics", str(metrics)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert "node mallory\n  delivered 0\n  tx 0\n" in metrics.read_text()

    def test_missing_file_exit_3(self):
        assert main(["check", "--scenario", "/nonexistent/sc.txt"]) == EXIT_IO

    def test_run_writes_trace_and_metrics(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text(GOOD)
        trace, metrics = tmp_path / "trace.txt", tmp_path / "metrics.txt"
        rc = main(["run", "--scenario", str(path), "--trace", str(trace),
                   "--metrics", str(metrics), "--quiet"])
        assert rc == EXIT_OK
        assert "delivered 1" in metrics.read_text()
        assert any("host_event" in line for line in trace.read_text().splitlines())

    def test_run_deterministic_across_invocations(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text(DEMOS["replay"])
        outs = []
        for run in range(2):
            trace = tmp_path / f"trace{run}.txt"
            main(["run", "--scenario", str(path), "--trace", str(trace),
                  "--metrics", str(tmp_path / "m"), "--seed", "9", "--hex", "--quiet"])
            outs.append(trace.read_bytes())
        assert outs[0] == outs[1]

    def test_vectors_match_frozen_golden_file(self, tmp_path):
        out = tmp_path / "v.txt"
        rc = main(["vectors", "--key", TEST_KEY_HEX, "--count", "8", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == VECTOR_FILE.read_text()

    def test_vectors_are_written_line_by_line(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        argv = ["vectors", "--key", TEST_KEY_HEX, "--count", str(VECTORS)]
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text()
        assert len(text) > VECTORS_PEAK
        assert peak - start < VECTORS_PEAK
        assert text.count("\n") == VECTORS and text.startswith(VECTOR_FILE.read_text())
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == text

    def test_vectors_count_zero(self, tmp_path, capsys):
        assert main(["vectors", "--key", TEST_KEY_HEX, "--count", "0"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("count", ["-1", "-3"])
    def test_vectors_negative_count_is_refused(self, count, capsys):
        assert main(["vectors", "--key", TEST_KEY_HEX, "--count", count]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == "error: count must be >= 0\n"

    def test_vectors_bad_key_length(self, capsys):
        assert main(["vectors", "--key", "aabb", "--count", "1"]) == EXIT_VALIDATION

    def test_demo_unknown_name_lists_valid(self, capsys):
        assert main(["demo", "nope", "--quiet"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "happy-path" in err and "replay" in err

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_all_demos_run_clean(self, name, tmp_path):
        rc = main(["demo", name, "--quiet",
                   "--trace", str(tmp_path / "t"), "--metrics", str(tmp_path / "m")])
        assert rc == EXIT_OK

    def test_demo_interpretations(self, tmp_path, capsys):
        main(["demo", "arp-poison", "--trace", str(tmp_path / "t"),
              "--metrics", str(tmp_path / "m")])
        out = capsys.readouterr().out
        assert "0 cache update(s)" in out
        main(["demo", "replay", "--trace", str(tmp_path / "t"),
              "--metrics", str(tmp_path / "m")])
        out = capsys.readouterr().out
        assert "Replayed" in out


class TestStreamedOutput:
    """`run` and `demo` write the trace line by line, the same bytes to a file
    and to stdout."""

    @staticmethod
    def argv(command, name, tmp_path):
        if command == "demo":
            return ["demo", name]
        path = tmp_path / "sc.txt"
        path.write_text(DEMOS[name])
        return ["run", "--scenario", str(path)]

    @pytest.mark.parametrize("command", ["run", "demo"])
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_file_and_stdout_match_the_goldens(self, command, name, tmp_path, capsys):
        argv = self.argv(command, name, tmp_path) + ["--hex", "--seed", "0"]
        trace, metrics = tmp_path / "trace", tmp_path / "metrics"
        assert main(argv + ["--quiet", "--trace", str(trace), "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == ""
        golden_trace, golden_metrics = (golden_bytes(f"{name}.{kind}").decode()
                                        for kind in ("trace", "metrics"))
        assert trace.read_text() == golden_trace
        assert metrics.read_text() == golden_metrics

        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "demo":
            _, folded = run_scenario(parse_scenario(DEMOS[name]))
            golden_metrics += interpret(name, folded) + "\n"
        assert out == golden_trace + golden_metrics

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_a_scenario_with_no_steps_writes_one_newline(self, to_file, tmp_path, capsys):
        path = tmp_path / "sc.txt"
        path.write_text(GOOD.split("[steps]")[0])
        trace = tmp_path / "trace"
        argv = ["run", "--scenario", str(path), "--metrics", str(tmp_path / "metrics")]
        assert main(argv + (["--trace", str(trace)] if to_file else [])) == 0
        assert (trace.read_text() if to_file else capsys.readouterr().out) == "\n"
