import json
import struct

import numpy as np
import pytest

from tweetembed import manifest
from tweetembed.embeddings import (
    EmbeddingTable,
    export_embeddings,
    read_embeddings_text,
    write_embeddings_binary,
    write_embeddings_text,
)
from tweetembed.model import ModelHyper, init_params

from memory import traced_peak


def table_from(words, rows):
    return EmbeddingTable(list(words), np.array(rows, dtype=np.float64))


class TestExport:
    def test_vectors_are_output_projection_columns(self):
        hyper = ModelHyper(vocab_size=3, d_in=4, d_ctx=2)
        params = init_params(hyper, seed=0)
        params.w_output[...] = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        vocab = ["um", "dois", "três"]
        table = export_embeddings(params, vocab)
        assert table.index == {"um": 0, "dois": 1, "três": 2}
        np.testing.assert_array_equal(table.vectors, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_row_count_excludes_boundary_tokens(self):
        hyper = ModelHyper(vocab_size=6, d_in=4, d_ctx=4)
        params = init_params(hyper, seed=1)
        vocab = [f"w{i}" for i in range(6)]
        table = export_embeddings(params, vocab)
        assert len(table.words) == 6
        assert table.vectors.shape == (6, 4)

    def test_size_mismatch_rejected(self):
        params = init_params(ModelHyper(vocab_size=3, d_in=4, d_ctx=4), seed=0)
        with pytest.raises(ValueError):
            export_embeddings(params, ["a", "b"])

    def test_metadata_carries_manifest_hash(self):
        params = init_params(ModelHyper(vocab_size=2, d_in=4, d_ctx=4), seed=0)
        table = export_embeddings(params, ["a", "b"], manifest_hash="cafe")
        assert (len(table.words), table.dim, table.manifest_hash) == (2, 4, "cafe")


class TestTextFile:
    def test_round_trip_at_text_precision(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        table = EmbeddingTable([f"w{i}" for i in range(7)], rng.normal(size=(7, 3)))
        path = tmp_path / "emb.txt"
        write_embeddings_text(table, path)
        loaded = read_embeddings_text(path)
        assert loaded.words == table.words
        np.testing.assert_allclose(loaded.vectors, table.vectors, atol=5e-7)
        # a second write of the loaded table reproduces the bytes exactly
        again = tmp_path / "emb2.txt"
        write_embeddings_text(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        for block_rows in (1, 2, 3):  # the word and three floats a row
            monkeypatch.setattr(manifest, "TEXT_BLOCK_VALUES", 4 * block_rows)
            write_embeddings_text(table, again)
            assert again.read_bytes() == path.read_bytes()

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # -0.0 keeps its sign; nan and inf cannot reach a valid table but
        # are written as the per-value format writes them.
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-9, 9, size=(5, 4))
        vectors[0] = [-0.0, 0.0, -4e-7, 5e-7]
        table = EmbeddingTable(["a", "%s", "b c", "ç", "d"], vectors)
        table.vectors[1, :3] = [np.nan, np.inf, -np.inf]
        path = tmp_path / "emb.txt"
        write_embeddings_text(table, path)
        expected = "5 4\n" + "".join(
            word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n"
            for word, vec in zip(table.words, table.vectors))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_write_peak_does_not_grow_with_rows(self, tmp_path):
        # |V| = 32768: formatting every row's Python floats at once held
        # 18.9 MB beyond the table at this width (69 MB at d = 64).
        rng = np.random.default_rng(5)
        table = EmbeddingTable([f"w{i}" for i in range(32768)], rng.normal(size=(32768, 16)))
        _, peak = traced_peak(write_embeddings_text, table, tmp_path / "emb.txt")
        assert peak < 4 * 2 ** 20, peak

    def test_header_counts(self, tmp_path):
        table = table_from(["x", "y"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "emb.txt"
        write_embeddings_text(table, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "2 3"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nx 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_embeddings_text(path)


class TestBinarySidecar:
    def test_byte_layout_preserves_full_precision(self, tmp_path):
        # magic, uint32 header length, JSON header, raw little-endian float64 rows
        rng = np.random.default_rng(13)
        table = EmbeddingTable(["à", "ç", "é"], rng.normal(size=(3, 5)) * 1e-7,
                               manifest_hash="feed")
        path = tmp_path / "emb.bin"
        write_embeddings_binary(table, path)
        data = path.read_bytes()
        assert data[:8] == b"EMBTBL01"
        (header_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12:12 + header_len].decode("utf-8"))
        assert header == {"format": 1, "words": ["à", "ç", "é"], "shape": [3, 5],
                          "dtype": "<f8", "manifest_hash": "feed"}
        assert data[12 + header_len:] == table.vectors.astype("<f8").tobytes()
