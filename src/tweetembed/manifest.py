"""Run manifests: enough resolved configuration to reproduce any run.

Also the file helpers the artifact writers share: content hashing and
atomic replacement.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterator

from . import __version__


def file_sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_write(path: Path | str, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Write `path` through a temp file beside it, moved into place only on success.

    The temp file is `<name>.tmp` in the same directory, so `os.replace` is
    an atomic rename: a process that dies mid-write leaves the previous
    file intact. On any error the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
