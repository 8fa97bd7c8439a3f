"""Tests for the exception hierarchy."""

import os

import pytest

from repro.errors import (
    AdversaryError,
    ModelViolation,
    ProtocolViolation,
    ReproError,
    SignatureError,
    TrivialProblemError,
    UnsolvableProblemError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            ModelViolation,
            ProtocolViolation,
            AdversaryError,
            SignatureError,
            UnsolvableProblemError,
            TrivialProblemError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")

    def test_model_vs_protocol_distinct(self):
        """Broken traces and broken algorithms are different failures."""
        assert not issubclass(ModelViolation, ProtocolViolation)
        assert not issubclass(ProtocolViolation, ModelViolation)

    def test_catchable_individually(self):
        with pytest.raises(TrivialProblemError):
            raise TrivialProblemError("t")
        # But not as each other:
        with pytest.raises(TrivialProblemError):
            try:
                raise TrivialProblemError("t")
            except UnsolvableProblemError:  # pragma: no cover
                pytest.fail("wrong class caught")


class TestUniformArtifactDiagnostic:
    """Every artifact loader shares one malformed-file diagnostic.

    The shared :mod:`repro.artifact` chokepoint guarantees the message
    shape ``<path>[:<line>]: not a <kind> (<ExcType>: <detail>)`` and
    the :class:`ArtifactError` type (CLI exit 2) across every family.
    """

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_ledger_events(self, tmp_path):
        """A pre-world-log JSONL event ledger is rejected as such."""
        from repro.errors import ArtifactError
        from repro.worldlog.store import read_worldlog

        path = self._write(
            tmp_path,
            "run.jsonl",
            '{"ts": 1.0, "kind": "counter", "name": "cache.hits"}\n',
        )
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(path)
        message = str(excinfo.value)
        assert f"{path}:1: not a world-log record" in message
        assert message.endswith("the file is not a world log")

    def test_bench_trajectory(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.obs.bench import read_bench_file

        path = self._write(tmp_path, "BENCH_x.json", '{"schema": 99}')
        with pytest.raises(ArtifactError) as excinfo:
            read_bench_file(path)
        message = str(excinfo.value)
        assert f"{path}: not a bench trajectory" in message

    def test_certificate(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.certify.format import read_certificate

        path = self._write(tmp_path, "bad.cert.json", '{"format": "no"}')
        with pytest.raises(ArtifactError) as excinfo:
            read_certificate(path)
        message = str(excinfo.value)
        assert f"{path}: not an attack certificate" in message

    def test_world_log(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.worldlog.store import read_worldlog

        path = self._write(
            tmp_path,
            "bad.worldlog",
            '{"tick": 0, "kind": "log.open", "run_id": "r", '
            '"cell_id": null, "worker_id": 0, "payload": {}}\n'
            "garbage\n",
        )
        with pytest.raises(ArtifactError) as excinfo:
            read_worldlog(path)
        assert f"{path}:2: not a world-log record" in str(excinfo.value)

    def test_exit_2_from_cli(self, tmp_path, capsys):
        """A malformed artifact is an environment failure: exit 2."""
        from repro.cli import main

        path = self._write(tmp_path, "garbage.jsonl", "not json\n")
        assert main(["trace", path]) == 2
        message = capsys.readouterr().err
        assert "not a world log" in message


class TestBadSystemSize:
    """``--n/--t`` outside ``2 <= t < n``: one ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "correct", "--n", "5", "--t", "8"],
            ["attack", "correct", "--n", "4", "--t", "1"],
            ["attack", "silent", "--n", "8", "--t", "8"],
            ["certify", "silent", "--n", "5", "--t", "8"],
            ["verify-witness", "unread.json", "silent", "--n", "5",
             "--t", "8"],
        ],
    )
    def test_rejected_without_a_traceback(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: --n/--t need 2 <= t < n")



class TestAbbreviatedOptions:
    """Long options must be spelled out: no prefix guessing, exit 2."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sweep", "correct", "--t", "8"], "--t"),
            (["attack", "silent", "--kern", "object"], "--kern"),
            (["trace", "unread.worldlog", "--form", "chrome"], "--form"),
            (["log", "replay", "unread.worldlog", "--a", "1"], "--a"),
        ],
        ids=["sweep-t", "attack-kern", "trace-form", "log-replay-a"],
    )
    def test_rejected_as_unrecognized(self, argv, option, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {option}" in captured.err
        assert "ambiguous" not in captured.err
        assert "Traceback" not in captured.err

class TestUndecodableBytes:
    """A stray non-UTF-8 byte: one ``error:`` line, exit 2."""

    @staticmethod
    def _corrupt_log(tmp_path, line):
        """The golden world log with ``\\xff`` inserted into ``line``."""
        golden = os.path.join(
            os.path.dirname(__file__), "worldlog", "golden", "run.worldlog"
        )
        with open(golden, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
        path = tmp_path / "stray.worldlog"
        path.write_bytes(b"\n".join(lines))
        return str(path)

    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize(
        "command",
        [
            ["trace"],
            ["log", "stats"],
            ["log", "replay", "--at", "1"],
            ["sweep", "silent", "--max-t", "4", "--resume"],
        ],
        ids=["trace", "log-stats", "log-replay", "sweep-resume"],
    )
    def test_world_log_readers(self, command, line, tmp_path, capsys):
        from repro.cli import main

        path = self._corrupt_log(tmp_path, line)
        if command[0] == "log" and len(command) > 2:
            argv = [*command[:2], path, *command[2:]]
        else:
            argv = [*command, path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (message,) = captured.err.strip().split("\n")
        assert message.startswith(f"error: {path}:{line}: ")
        assert "UnicodeDecodeError" in message

    def test_verify_witness(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "stray.json"
        path.write_bytes(b'{"format": "\xff"}')
        argv = ["verify-witness", str(path), "silent", "--n", "12", "--t", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (message,) = captured.err.strip().split("\n")
        assert message.startswith(f"error: {path}: not a violation witness")

    def test_verify_cert_replay(self, tmp_path, capsys):
        """The certificate verifier rejects; ``--replay`` must not crash."""
        from repro.cli import main

        path = tmp_path / "stray.cert.json"
        path.write_bytes(b'{"claim": "\xff"}')
        assert main(["verify-cert", str(path), "--replay", "silent"]) == 1
        assert "REJECTED" in capsys.readouterr().out
