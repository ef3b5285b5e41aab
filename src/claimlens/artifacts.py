"""The one place where stage files are read and written: every write replaces
its file whole or leaves the old one as it was, and every failure to read or
decode a file raises ``UnreadableFile`` (exit 1) naming it."""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, BinaryIO, Iterable, Iterator

from .errors import UnreadableFile

_HASH_BLOCK = 1 << 16


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle on ``<path>.tmp`` in the (created) parent, moved over ``path``
    on success, removed on failure; plain ``open``, unlike ``mkstemp``, keeps the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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
def _reading(path: str | Path, what: str, mode: str = "r") -> Iterator[IO[Any]]:
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


def file_sha256(path: str | Path, what: str) -> str:
    """Hex SHA-256 of the bytes in ``path``, read in blocks of ``_HASH_BLOCK`` bytes
    so that no copy of the whole file is held; ``what`` names the file in errors."""
    digest = hashlib.sha256()
    with _reading(path, what, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value in ``path``; ``what`` names the file in errors."""
    with _reading(path, what) as fh:
        return _parse(fh.read(), what, path)


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, Any]]:
    """``(lineno, record)`` per non-blank line, streamed. Lines split as a file
    reads them, not as ``str.splitlines``: a U+2028 or U+0085 inside a string
    stays in its record. A line holding one value from its first character, then only JSON
    whitespace, and no surrogate escape is decoded directly; others go through ``_parse``."""
    raw_decode = json.JSONDecoder().raw_decode
    with _reading(path, what) as fh:
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
