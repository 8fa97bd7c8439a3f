"""One loader, one diagnostic: uniform artifact-file error handling.

Every persisted artifact family the repository reads back — world
logs, ``BENCH_<suite>.json`` trajectories, attack certificates — shares
one malformed-file diagnostic.  A loader names the *kind* of artifact it
expects and supplies a parser; any parse failure becomes one
:class:`~repro.errors.ArtifactError` with the uniform one-liner

    ``<path>:<line>: not a <kind> (<ExcType>: <detail>)``

(world-log lines, see :mod:`repro.worldlog.store`) or
``<path>: not a <kind> (...)`` (whole-document artifacts).  The CLI maps
:class:`ArtifactError` to exit 2 — the file exists but is not the
artifact it claims to be, an environment failure, never a domain
verdict.

>>> import tempfile, os
>>> with tempfile.TemporaryDirectory() as d:
...     path = os.path.join(d, "garbage.json")
...     _ = open(path, "w").write("this is not json")
...     try:
...         load_artifact(path, "bench trajectory", __import__("json").loads)
...     except Exception as e:
...         print(type(e).__name__, ": not a bench trajectory" in str(e))
ArtifactError True
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import ArtifactError, ReproError

T = TypeVar("T")

_PARSE_FAILURES = (ValueError, KeyError, TypeError, ReproError)
"""What a parser may raise for malformed content (``json.JSONDecodeError``
is a ``ValueError``).  Anything else is a bug and propagates."""


def artifact_error(
    path: str,
    kind: str,
    error: BaseException,
    line: int | None = None,
) -> ArtifactError:
    """The uniform malformed-artifact diagnostic, ready to raise."""
    location = f"{path}:{line}" if line is not None else path
    article = "an" if kind[:1].lower() in "aeiou" else "a"
    return ArtifactError(
        f"{location}: not {article} {kind} "
        f"({type(error).__name__}: {error})"
    )


def load_artifact(
    path: str,
    kind: str,
    parse: Callable[[str], T],
) -> T:
    """Parse a whole-document artifact with the uniform diagnostic.

    Args:
        path: the artifact file.
        kind: the human name of the expected document
            (``"bench trajectory"``, ``"attack certificate"``, ...).
        parse: ``text -> document``; parse failures become the canonical
            :class:`ArtifactError` one-liner.

    Raises:
        ArtifactError: when the document does not parse (CLI exit 2).
        OSError: if the file cannot be read.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse(data.decode("utf-8"))
    except _PARSE_FAILURES as exc:
        raise artifact_error(path, kind, exc) from exc
