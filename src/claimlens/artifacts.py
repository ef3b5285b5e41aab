"""The one place where stage files are read and written: every write replaces
its file whole or leaves the old one as it was, every failure to write raises
``UsageError`` (exit 1) naming the file, and every failure to read or decode a
file raises ``UnreadableFile`` (exit 1) naming it."""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, BinaryIO, Iterable, Iterator

from .errors import UnreadableFile, UsageError


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle on ``<path>.tmp`` in the (created) parent, moved over ``path``
    on success, removed on failure; plain ``open``, unlike ``mkstemp``, keeps the umask.
    An ``OSError`` from creating the parent, opening, writing or moving the file
    becomes a ``UsageError`` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "wb")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {path}: {exc}") from exc
        raise


def write_text(path: str | Path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_json(path: str | Path, payload: Any) -> None:
    with replacing(path) as fh, io.TextIOWrapper(fh, "utf-8", newline="\n") as text:
        json.dump(payload, text, indent=2, ensure_ascii=True)
        text.write("\n")


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    with replacing(path) as fh:
        fh.writelines(json.dumps(r, ensure_ascii=True).encode("ascii") + b"\n" for r in records)


@contextmanager
def reading(path: str | Path, what: str, mode: str = "r") -> Iterator[IO[Any]]:
    """``open(path, mode)``, UTF-8 in text mode; an ``OSError`` or a decoding error
    raised inside becomes an ``UnreadableFile`` naming the file as ``what``."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UnreadableFile(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{what} {path} is not valid UTF-8: {exc}") from exc


def parse_json(text: str) -> Any:
    """``json.loads`` that also refuses the escape of a lone surrogate (``"\\ud800"``),
    which no later UTF-8 write or prompt hash could encode; both raise ``ValueError``."""
    value = json.loads(text)
    if "\\ud" in text or "\\uD" in text:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("it escapes a lone surrogate, which UTF-8 cannot encode") from None
    return value


def _parse(text: str, what: str, path: str | Path, lineno: int | None = None) -> Any:
    """``parse_json``; names the file, and the line if given, only on an error."""
    try:
        return parse_json(text)
    except (ValueError, RecursionError) as exc:
        where = f"{what} {path}" if lineno is None else f"{what} {path}: line {lineno}"
        raise UnreadableFile(f"{where} is not valid JSON: {exc}") from exc


def decode_line(line: bytes | bytearray, what: str, path: str | Path, lineno: int) -> Any:
    """The JSON value of one line of a JSONL file read as bytes, refused as
    :func:`read_jsonl` refuses it."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{what} {path} is not valid UTF-8: {exc}") from exc
    return _parse(text, what, path, lineno)


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value in ``path``; ``what`` names the file in errors."""
    with reading(path, what) as fh:
        return _parse(fh.read(), what, path)


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, Any]]:
    """``(lineno, record)`` per non-blank line, streamed. Lines split as a file
    reads them, not as ``str.splitlines``: a U+2028 or U+0085 inside a string
    stays in its record. A line holding one value from its first character, then only JSON
    whitespace, and no surrogate escape is decoded directly; others go through ``_parse``."""
    raw_decode = json.JSONDecoder().raw_decode
    with reading(path, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                value, end = raw_decode(line)
            except (ValueError, RecursionError):
                end = 0
            if not end or line[end:].strip(" \t\n\r") or "\\ud" in line or "\\uD" in line:
                value = _parse(line, what, path, lineno)
            yield lineno, value
