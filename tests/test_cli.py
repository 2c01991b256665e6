import argparse
import re
import shlex
import textwrap
from pathlib import Path

import pytest

import npscalar.cli
from npscalar import (
    ConfigError,
    InputShapeError,
    InstanceShapeError,
    Policy,
    parse_config,
    parse_modulus,
)
from npscalar.cli import build_parser, main
from npscalar.config import MAX_MODULUS_BITS

THREE_PARTY = textwrap.dedent(
    """
    modulus: 2^64
    seed: 7
    policy: secure
    parties:
      alice: [1, 2]
      bob: [3, 4]
      claire: [5, 6]
    """
)

TWO_PARTY = "parties:\n  a: [1, 2]\n  b: [3, 4]\n"
# an int literal past CPython's 4,300-digit limit on text-to-int conversion
LONG = "9" * 5000
TOO_LARGE = "modulus must have at most 4096 bits"
BAD_POWER = "a modulus power needs base >= 2 and exponent >= 1"
UNREADABLE = "malformed config: an integer literal has more than 4300 digits\n"


class TestParseModulus:
    def test_accepts_int_and_strings(self):
        assert parse_modulus(251) == 251
        assert parse_modulus("2^64") == 1 << 64
        assert parse_modulus("2**16") == 65536
        assert parse_modulus("97") == 97

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_modulus("two")
        with pytest.raises(ConfigError):
            parse_modulus(1)

    @pytest.mark.parametrize("spec", ["-2**2", "-2^2", "1**5", "0**3", "2**0", "2**-1"])
    def test_rejects_a_power_below_base_2_or_exponent_1(self, spec):
        """`-2**2` is not read as (-2)**2 = 4."""
        with pytest.raises(ConfigError, match=f"^{re.escape(BAD_POWER)}$"):
            parse_modulus(spec)

    @pytest.mark.parametrize(
        "spec",
        ["3**2000000", "10**5000", "2**4096", 1 << 4096],
        ids=["3**2000000", "10**5000", "2**4096", "int-2**4096"],
    )
    def test_rejects_a_modulus_over_the_bound(self, spec):
        """Every modulus, and so every result, stays printable."""
        with pytest.raises(ConfigError, match=f"^{TOO_LARGE}$"):
            parse_modulus(spec)

    def test_accepts_the_largest_modulus(self):
        assert parse_modulus("2**4095").bit_length() == MAX_MODULUS_BITS
        assert parse_modulus((1 << MAX_MODULUS_BITS) - 1) == (1 << 4096) - 1


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(THREE_PARTY)
        assert cfg.names == ["alice", "bob", "claire"]
        assert cfg.vectors == [(1, 2), (3, 4), (5, 6)]
        assert cfg.policy is Policy.SECURE
        assert cfg.seed == 7

    def test_two_party_flawed_is_valid(self):
        cfg = parse_config(
            "policy: flawed\nparties:\n  a: [1, 0, 1]\n  b: [1, 1, 0]\n"
        )
        assert cfg.policy is Policy.FLAWED

    def test_length_mismatch_names_party(self):
        with pytest.raises(InputShapeError, match="bob"):
            parse_config("parties:\n  alice: [1, 2]\n  bob: [1, 2, 3]\n")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            parse_config("policy: sneaky\nparties:\n  a: [1]\n  b: [2]\n")

    def test_too_few_parties(self):
        with pytest.raises(InstanceShapeError):
            parse_config("parties:\n  a: [1]\n")

    def test_boolean_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_config("seed: true\nparties:\n  a: [1]\n  b: [2]\n")

    def test_entries_reduced_on_load(self):
        cfg = parse_config("modulus: 7\nparties:\n  a: [9, 15]\n  b: [1, 2]\n")
        assert cfg.vectors[0] == (2, 1)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(THREE_PARTY)
    return str(path)


class TestCliCommands:
    def test_run_with_verify(self, config_path, capsys):
        status = main(["run", "--config", config_path, "--verify"])
        out = capsys.readouterr().out
        assert status == 0
        assert "result: 63" in out
        assert "oracle-match: true" in out

    def test_run_seed_does_not_change_result(self, config_path, capsys):
        main(["run", "--config", config_path, "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", "--config", config_path, "--seed", "2"])
        second = capsys.readouterr().out
        line = next(l for l in first.splitlines() if l.startswith("result:"))
        assert line in second

    def test_run_writes_transcript(self, config_path, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        main(["run", "--config", config_path, "--transcript", str(out_path)])
        capsys.readouterr()
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 36
        assert lines[0].startswith('{"from"')

    @pytest.mark.parametrize("command", ["run", "attack-demo", "oracle"])
    def test_environment_sets_nothing(
        self, command, config_path, tmp_path, capsys, monkeypatch
    ):
        """Settings come from flags and the config file alone: variables
        that once overrode them change no output and no exit status."""
        argv = [command, "--config", config_path]
        if command == "run":
            argv.append("--verify")

        def outcome():
            status = main(argv)
            out, err = capsys.readouterr()
            return re.sub(r"elapsed-ms: .*\n", "", out), err, status

        clean = outcome()
        for name, value in {
            "CONFIG": str(tmp_path / "missing.yaml"),
            "MODULUS": "251",
            "SEED": "abc",
            "POLICY": "sneaky",
            "TRANSCRIPT": str(tmp_path / "missing" / "t.jsonl"),
        }.items():
            monkeypatch.setenv("NPSCALAR_" + name, value)
        assert outcome() == clean
        assert clean[2] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--seed", "1"],
            ["oracle", "--policy", "flawed"],
            ["attack-demo", "--policy", "flawed"],
            ["attack-demo", "--transcript", "x"],
            ["bench"],
        ],
        ids=[
            "oracle-seed",
            "oracle-policy",
            "attack-demo-policy",
            "attack-demo-transcript",
            "bench",
        ],
    )
    def test_command_or_flag_not_taken_is_usage_error(
        self, argv, config_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", config_path])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["emit-transcript: 5", "verify: true"])
    def test_transcript_and_verify_are_not_config_keys(self, key, tmp_path, capsys):
        path = tmp_path / "keys.yaml"
        path.write_text(f"{key}\nparties:\n  a: [1]\n  b: [2]\n")
        status = main(["run", "--config", str(path)])
        assert status == 2
        name = key.split(":")[0]
        assert capsys.readouterr().err == f"error: unknown config keys: ['{name}']\n"

    @pytest.mark.parametrize("entries", ["[1.5, 2]", "[x, 2]", "[true, 2]"])
    def test_non_integer_entry_is_error(self, entries, tmp_path, capsys):
        path = tmp_path / "entries.yaml"
        path.write_text(f"parties:\n  a: [1, 2]\n  b: {entries}\n")
        status = main(["run", "--config", str(path)])
        out, err = capsys.readouterr()
        assert status == 2
        assert "result:" not in out
        assert err == "error: party 'b' has a non-integer entry\n"

    @pytest.mark.parametrize(
        "flag,key,shown",
        [
            ("--seed=3", "seed: 7", "seed: 3"),
            ("--policy=flawed", "policy: secure", "policy: flawed"),
            ("--modulus=251", "modulus: 18446744073709551616", "modulus: 251"),
        ],
        ids=["seed", "policy", "modulus"],
    )
    def test_flag_wins_over_config_key(self, flag, key, shown, config_path, capsys):
        """Without its flag a run uses the config key; with it, the flag."""
        assert main(["run", "--config", config_path, "--verify"]) == 0
        assert key in capsys.readouterr().out.splitlines()
        assert main(["run", "--config", config_path, "--verify", flag]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert shown in lines and key not in lines
        assert "oracle-match: true" in lines

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_modulus_override_reduces_written_entries(self, via, tmp_path, capsys):
        """A modulus reduces the entries as written: -1 is 250 mod 251, not
        2^64 - 1 reduced a second time, whether it overrides the default by
        flag or by config key."""
        path = tmp_path / "negative.yaml"
        key = "modulus: 251\n" if via == "config" else ""
        path.write_text(f"{key}parties:\n  a: [-1, 2]\n  b: [3, 4]\n")
        flags = ["--modulus", "251"] if via == "flag" else []
        assert main(["oracle", "--config", str(path), *flags]) == 0
        assert main(["run", "--config", str(path), "--verify", *flags]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "oracle: 5"
        assert "result: 5" in out and "modulus: 251" in out

    def test_attack_demo_dichotomy(self, config_path, capsys):
        status = main(["attack-demo", "--config", config_path])
        out = capsys.readouterr().out
        assert status == 0
        assert "dichotomy: true" in out
        assert "exact=true" in out
        assert "recovered: none" in out

    def test_attack_demo_two_parties_warns(self, tmp_path, capsys):
        path = tmp_path / "two.yaml"
        path.write_text("policy: flawed\nparties:\n  a: [1]\n  b: [2]\n")
        status = main(["attack-demo", "--config", str(path)])
        assert status == 0
        assert "no sub-protocols exist" in capsys.readouterr().out

    def test_count_table(self, capsys):
        status = main(["count", "--min", "2", "--max", "6"])
        out = capsys.readouterr().out
        assert status == 0
        assert "5 25 336" in out
        assert "6 56 5687" in out

    def test_oracle_command(self, config_path, capsys):
        status = main(["oracle", "--config", config_path])
        assert status == 0
        assert "oracle: 63" in capsys.readouterr().out

    def test_missing_config_is_error(self, capsys):
        status = main(["run"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,name,reason",
        [
            ("run", "missing.yaml", "No such file or directory"),
            ("oracle", "", "Is a directory"),
        ],
        ids=["run-missing-file", "oracle-directory"],
    )
    def test_unreadable_config_is_error(self, command, name, reason, tmp_path, capsys):
        path = tmp_path / name
        status = main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == ""
        assert err == f"error: cannot open {path}: {reason}\n"

    def test_unwritable_transcript_fails_before_the_run(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        runs = []

        def counted(*args, **kwargs):
            runs.append(args)
            return run_protocol(*args, **kwargs)

        run_protocol = npscalar.cli.run_protocol
        monkeypatch.setattr(npscalar.cli, "run_protocol", counted)
        dest = tmp_path / "nodir" / "t.jsonl"
        status = main(["run", "--config", config_path, "--transcript", str(dest)])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == "" and runs == []
        assert err == f"error: cannot open {dest}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv,text,err",
        [
            (["run", "--modulus", "10**5000"], TWO_PARTY, TOO_LARGE),
            (["oracle", "--modulus", "10**5000"], TWO_PARTY, TOO_LARGE),
            (["run", "--modulus=-2**2"], TWO_PARTY, BAD_POWER),
            (["run"], "modulus: -2**2\n" + TWO_PARTY, BAD_POWER),
            (["run"], f"modulus: {LONG}\n" + TWO_PARTY, UNREADABLE),
            (["run"], f"seed: {LONG}\n" + TWO_PARTY, UNREADABLE),
            (["oracle"], f"parties:\n  a: [1, {LONG}]\n  b: [3, 4]\n", UNREADABLE),
        ],
        ids=[
            "run-modulus-flag",
            "oracle-modulus-flag",
            "negative-base-flag",
            "negative-base-key",
            "long-modulus-key",
            "long-seed-key",
            "long-entry",
        ],
    )
    def test_oversized_or_negative_input_is_error_before_the_run(
        self, argv, text, err, tmp_path, capsys, monkeypatch
    ):
        """An integer too long to print, or a power with a base below 2, is
        one short error line and status 2, with no run and no traceback."""
        monkeypatch.setattr(npscalar.cli, "run_protocol", None)
        monkeypatch.setattr(npscalar.cli.analysis, "plaintext_oracle", None)
        path = tmp_path / "big.yaml"
        path.write_text(text)
        status = main([*argv, "--config", str(path)])
        out, got = capsys.readouterr()
        assert status == 2 and out == ""
        assert got.startswith(f"error: {err}") and got.count("\n") == 1
        assert len(got) < 120

    def test_unparsable_long_modulus_is_cut_in_the_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A 5,000-digit `--modulus` is echoed as its first 40 characters
        and its length, not in full."""
        monkeypatch.setattr(npscalar.cli, "run_protocol", None)
        path = tmp_path / "two.yaml"
        path.write_text(TWO_PARTY)
        status = main(["run", "--modulus", LONG, "--config", str(path)])
        out, err = capsys.readouterr()
        assert status == 2 and out == ""
        assert err == f"error: cannot parse modulus '{LONG[:39]}... (5002 characters)\n"
        assert len(err) < 120

    @pytest.mark.parametrize("command", ["run", "oracle", "attack-demo"])
    def test_empty_modulus_is_error_before_the_run(
        self, command, config_path, capsys, monkeypatch
    ):
        """An empty `--modulus` is a parse error, not a missing flag that
        leaves the config's modulus in place."""
        monkeypatch.setattr(npscalar.cli, "run_protocol", None)
        monkeypatch.setattr(npscalar.cli.analysis, "plaintext_oracle", None)
        status = main([command, "--config", config_path, "--modulus", ""])
        out, err = capsys.readouterr()
        assert status == 2 and out == ""
        assert err == "error: cannot parse modulus ''\n"

    def test_count_min_above_max_is_error(self, capsys):
        status = main(["count", "--min", "5", "--max", "2"])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == ""
        assert err == "error: --min 5 exceeds --max 2\n"


def test_readme_commands_parse():
    """Every `npscalar` line in the README's CLI block names a command and
    flags that the parser takes."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("npscalar ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_flag_table_matches_parser():
    """The README's CLI table lists each command's flags as the parser
    declares them."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = re.search(r"\n## CLI\n(.*?)\n## ", readme, re.S).group(1)
    rows = re.findall(r"^\| `([\w-]+)` +\|(.*)\|$", section, re.M)
    documented = {
        command: re.findall(r"`(--[\w-]+)`", flags) for command, flags in rows
    }
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        command: [
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        ]
        for command, sub in commands.items()
    }
    assert documented == declared
