"""The artifact contract: a write replaces its file whole or leaves the old one
byte-identical with no temp file beside it, a failed write is a ``UsageError``
naming the file, a new file gets the umask's mode, and every read failure is a
``UsageError`` naming the file too."""

import errno
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlens import artifacts
from claimlens.artifacts import (
    read_json, read_jsonl, replacing, write_json, write_jsonl, write_text,
)
from claimlens.embedding import EmbeddingIndex
from claimlens.errors import UsageError


class _DiskFull(io.FileIO):
    """A file that takes half of the first write, then reports a full disk."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


def _assert_untouched(path, before):
    assert path.read_bytes() == before
    assert list(path.parent.glob("*.tmp")) == []


@pytest.mark.parametrize("failure", ["disk_full", "unencodable", "replace_fails"])
def test_failed_json_write_keeps_the_old_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "hierarchy.json"
    write_json(path, {"nodes": ["old"]})
    before = path.read_bytes()
    payload = {"nodes": ["new"] * 100}
    if failure == "disk_full":
        monkeypatch.setattr(artifacts, "open", lambda p, mode: _DiskFull(p, "w"), raising=False)
    elif failure == "unencodable":
        payload["extra"] = object()
    else:
        monkeypatch.setattr(artifacts.os, "replace", _fail_replace)
    with pytest.raises(TypeError if failure == "unencodable" else UsageError) as info:
        write_json(path, payload)
    if failure != "unencodable":
        assert str(info.value).startswith(f"cannot write {path}: ")
    _assert_untouched(path, before)


@pytest.mark.parametrize(
    "failure", ["parent_is_a_file", "temp_is_a_directory", "target_is_a_directory"]
)
def test_os_error_of_a_write_is_a_usage_error_naming_the_path(tmp_path, failure):
    """Creating the parent, opening the temp file and the final move each fail;
    the write leaves what was there as it was and no temp file of its own."""
    path = tmp_path / "out" / "segments.jsonl"
    if failure == "parent_is_a_file":
        (tmp_path / "out").write_bytes(b"corpus")
    elif failure == "temp_is_a_directory":
        (tmp_path / "out" / "segments.jsonl.tmp").mkdir(parents=True)
    else:
        path.mkdir(parents=True)
    before = sorted((p.relative_to(tmp_path), p.is_dir()) for p in tmp_path.rglob("*"))
    with pytest.raises(UsageError) as info:
        with replacing(path) as fh:
            fh.write(b"new\n")
    assert str(info.value).startswith(f"cannot write {path}: ")
    assert isinstance(info.value.__cause__, OSError)
    assert sorted((p.relative_to(tmp_path), p.is_dir()) for p in tmp_path.rglob("*")) == before
    if failure == "parent_is_a_file":
        assert (tmp_path / "out").read_bytes() == b"corpus"


def test_failed_jsonl_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "operation_log.jsonl"
    write_jsonl(path, [{"kind": "old"}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(path, [{"kind": "new"}, {"kind": "new"}, {"kind": object()}])
    _assert_untouched(path, before)


class _HalfWritten(np.ndarray):
    def tofile(self, fh, *args, **kwargs):
        fh.write(self.tobytes()[: self.nbytes // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_index_save_keeps_the_old_index(tmp_path, monkeypatch):
    old = EmbeddingIndex(dim=3, capacity=2)
    old.add_batch(["a", "b"], np.eye(3)[:2])
    old.save(str(tmp_path), {"config_fingerprint": "old"})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = EmbeddingIndex(dim=3, capacity=3)
    new.add_batch(["c", "d", "e"], np.eye(3))
    real = np.ascontiguousarray
    monkeypatch.setattr(
        np, "ascontiguousarray", lambda a, dtype=None: real(a, dtype=dtype).view(_HalfWritten)
    )
    with pytest.raises(UsageError, match="vectors.bin: .*No space left on device"):
        new.save(str(tmp_path), {"config_fingerprint": "new"})
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded, manifest = EmbeddingIndex.load(str(tmp_path))
    assert (loaded.ids, manifest["config_fingerprint"]) == (["a", "b"], "old")


def test_new_artifact_mode_follows_the_umask(tmp_path):
    path = tmp_path / "new_dir" / "metrics.txt"
    old_umask = os.umask(0o027)
    try:
        write_text(path, "x\n")
    finally:
        os.umask(old_umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_json_artifact_is_indented_ascii_with_a_newline(tmp_path):
    payload = {"claim": "café", "nodes": [1, {"a": None}]}
    write_json(tmp_path / "h.json", payload)
    expected = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    assert (tmp_path / "h.json").read_bytes() == expected.encode("ascii")
    assert read_json(tmp_path / "h.json", "hierarchy file") == payload


def test_read_jsonl_numbers_lines_and_splits_only_at_newlines(tmp_path):
    path = tmp_path / "segments.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\n  \n{"t": "x\xe2\x80\xa8y"}\n')
    assert list(read_jsonl(path, "segment store")) == [(1, {"a": 1}), (4, {"t": "x\u2028y"})]


def test_read_json_keeps_escaped_surrogate_pairs(tmp_path):
    payload = {"label": "efficacy \U0001f600", "\U0001f600": ["\ud7ff \ue000"]}
    write_json(tmp_path / "h.json", payload)
    assert b"\\ud83d\\ude00" in (tmp_path / "h.json").read_bytes()
    assert read_json(tmp_path / "h.json", "hierarchy file") == payload


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read segment store"),
        (b'{"a": 1}\n{"t": "caf\xe9"}\n', "segment store {path} is not valid UTF-8"),
        (b'{"a": 1}\n\n{"a": \n', "segment store {path}: line 3 is not valid JSON"),
        (b"[" * 100_000 + b"\n", "segment store {path}: line 1 is not valid JSON"),
        (b'{"a": 1}\n{"t": "x \\ud800 y"}\n', "segment store {path}: line 2 is not valid JSON: it escapes a lone surrogate"),
        (b'{"t": "x \\uDC00"}\n', "segment store {path}: line 1 is not valid JSON: it escapes a lone surrogate"),
        (b'{"\\ude00\\ud83d": 1}\n', "segment store {path}: line 1 is not valid JSON: it escapes a lone surrogate"),
    ],
    ids=[
        "missing",
        "not_utf8",
        "bad_line",
        "nested_too_deep",
        "lone_high_surrogate",
        "lone_low_surrogate_upper_hex",
        "reversed_pair_in_key",
    ],
)
def test_unreadable_jsonl_names_the_file(tmp_path, content, message):
    path = tmp_path / "segments.jsonl"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(UsageError) as info:
        list(read_jsonl(path, "segment store"))
    assert message.format(path=path) in str(info.value)


def _per_line_parse(path):
    """What ``read_jsonl`` must yield: ``_parse`` on every non-blank line as the
    file reads it, up to the first error, given as its message."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                records.append((lineno, artifacts._parse(line, "segment store", path, lineno)))
            except UsageError as exc:
                return records, str(exc)
    return records, None


def _streamed(path):
    records = []
    try:
        for item in read_jsonl(path, "segment store"):
            records.append(item)
    except UsageError as exc:
        return records, str(exc)
    return records, None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_LINE_BODIES = st.one_of(
    st.builds(json.dumps, _JSON_VALUES, ensure_ascii=st.booleans()),
    st.sampled_from([
        "1 2", '{"a": 1} {"b": 2}', '"\\ud83d\\ude00"', '{"k": "x \\uD83D\\uDE00 y"}',
        '"\\ud800"', '["\\uDC00"]', '{"\\ude00\\ud83d": 1}', "{oops", "[1,", "nul", "\ufeff{}",
        "NaN", "-Infinity", "[" * 3000,
    ]),
)
_PADDING = st.sampled_from(["", " ", "\t", "\r", "  \t", "\x0c", "\u2028", "\u00a0", " 2"])
_LINES = st.lists(
    st.tuples(_PADDING, _LINE_BODIES, _PADDING, st.sampled_from(["\n", "\r\n", ""])).map("".join),
    min_size=1,
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(lines=_LINES)
@example(lines=[" {\"a\": 1}\n", "{\"a\": 1}  \t\n"])
@example(lines=["1 2\n"])
@example(lines=['{"t": "\\ud83d\\ude00"}\n', '{"t": "\\ud83d"}\n'])
@example(lines=['{"t": 1}\x0c\n'])
def test_read_jsonl_yields_what_parsing_each_line_yields(lines):
    """Leading or trailing whitespace, a second value, surrogate escapes and bad
    lines give the same records, or the same error, as ``_parse`` line by line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "segments.jsonl")
        with open(path, "wb") as fh:
            fh.write("".join(lines).encode("utf-8"))
        assert repr(_streamed(path)) == repr(_per_line_parse(path))
