"""Run manifests: enough resolved configuration to reproduce any run.

Also the file helpers the artifact writers share: content hashing, atomic
replacement, the row blocks of the text writers and the binary container
of the checkpoint, the embedding table and the 5-gram database.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterator

from . import __version__

# The text writers turn array rows into Python values (ints, floats,
# strings) one block at a time; a block creates at most this many values,
# so a writer's memory beyond its input does not grow with the row count.
TEXT_BLOCK_VALUES = 1 << 16


def file_sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_write(path: Path | str, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Write `path` through a temp file beside it, moved into place only on success.

    The temp file is `<name>.<pid>.tmp` in the same directory, so
    `os.replace` is an atomic rename: a process that dies mid-write leaves
    the previous file intact, and two processes writing one path never
    share a temp file. On any error the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def row_blocks(n_rows: int, values_per_row: int) -> Iterator[slice]:
    """Slices of `n_rows` rows, each as many rows as TEXT_BLOCK_VALUES
    values allow (at least one), in order."""
    step = max(1, TEXT_BLOCK_VALUES // values_per_row)
    for lo in range(0, n_rows, step):
        yield slice(lo, lo + step)


def write_container(path: Path | str, magic: bytes, header: dict, parts: list) -> None:
    """Write a binary container through `atomic_write`: the 8-byte `magic`,
    the little-endian uint32 length of the header, the header as JSON with
    sorted keys in UTF-8 (non-ASCII kept as is), then each body part from
    its own buffer. No part is copied into one blob."""
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for part in parts:
            fh.write(part)


def read_container(data: bytes, magic: bytes) -> tuple[dict, memoryview]:
    """The header and a view of the body of `write_container` bytes.

    A ValueError names the fault when the magic is not `magic`, the length
    field is missing, the header runs past the data, or the header is not
    a JSON object in UTF-8 (a header nested too deep to decode included).
    Each format checks its own header keys and body size.
    """
    view = memoryview(data)
    start = len(magic) + 4
    if (head := bytes(view[:len(magic)])) != magic:
        raise ValueError(f"bad magic {head!r}, expected {magic!r}")
    if len(view) < start:
        raise ValueError("truncated (no header length)")
    (header_len,) = struct.unpack_from("<I", view, len(magic))
    if start + header_len > len(view):
        raise ValueError(f"truncated ({len(view)} bytes, header length says {header_len})")
    try:
        header = json.loads(str(view[start:start + header_len], "utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise ValueError(f"unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    return header, view[start + header_len:]


def build_manifest(subcommand: str, config: dict, inputs: dict[str, Path | str],
                   deterministic: bool, digests: dict[str, str] | None = None) -> dict:
    """Resolved config plus input hashes and tool version.

    An input named in `digests` takes the sha256 given there, which the
    caller has already computed; every other input is hashed here. In
    deterministic mode the timestamp is left empty so manifests are
    byte-reproducible; everything else in the manifest is already a pure
    function of the inputs and configuration.
    """
    digests = digests or {}
    return {
        "subcommand": subcommand,
        "config": config,
        "inputs": {
            name: {"path": str(path),
                   "sha256": digests[name] if name in digests else file_sha256(path)}
            for name, path in inputs.items()
        },
        "tool_version": __version__,
        "deterministic": deterministic,
        "timestamp": "" if deterministic else datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, path: Path | str) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
