import numpy as np
import pytest

from tweetembed.dataset import Vocabulary
from tweetembed.embeddings import (
    EmbeddingTable,
    export_embeddings,
    read_embeddings_binary,
    read_embeddings_text,
    write_embeddings_binary,
    write_embeddings_text,
)
from tweetembed.model import ModelHyper, init_params


def table_from(words, rows):
    return EmbeddingTable(list(words), np.array(rows, dtype=np.float64))


class TestExport:
    def test_vectors_are_output_projection_columns(self):
        hyper = ModelHyper(vocab_size=3, d_in=4, d_ctx=2)
        params = init_params(hyper, seed=0)
        params.w_output[...] = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        vocab = Vocabulary(["um", "dois", "três"])
        table = export_embeddings(params, vocab)
        assert table.index == {"um": 0, "dois": 1, "três": 2}
        np.testing.assert_array_equal(table.vectors, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_row_count_excludes_boundary_tokens(self):
        hyper = ModelHyper(vocab_size=6, d_in=4, d_ctx=4)
        params = init_params(hyper, seed=1)
        vocab = Vocabulary([f"w{i}" for i in range(6)])
        table = export_embeddings(params, vocab)
        assert len(table.words) == 6
        assert table.vectors.shape == (6, 4)

    def test_input_source_flag(self):
        hyper = ModelHyper(vocab_size=3, d_in=5, d_ctx=2)
        params = init_params(hyper, seed=2)
        vocab = Vocabulary(["a", "b", "c"])
        table = export_embeddings(params, vocab, source="input")
        assert table.vectors.shape == (3, 5)
        np.testing.assert_array_equal(table.vectors, params.w_input[:3])

    def test_size_mismatch_rejected(self):
        params = init_params(ModelHyper(vocab_size=3, d_in=4, d_ctx=4), seed=0)
        with pytest.raises(ValueError):
            export_embeddings(params, Vocabulary(["a", "b"]))

    def test_metadata_carries_manifest_hash(self):
        params = init_params(ModelHyper(vocab_size=2, d_in=4, d_ctx=4), seed=0)
        table = export_embeddings(params, Vocabulary(["a", "b"]), manifest_hash="cafe")
        assert (len(table.words), table.dim, table.manifest_hash) == (2, 4, "cafe")


class TestTextFile:
    def test_round_trip_at_text_precision(self, tmp_path):
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
    def test_round_trip_preserves_full_precision(self, tmp_path):
        rng = np.random.default_rng(13)
        table = EmbeddingTable(["à", "ç", "é"], rng.normal(size=(3, 5)) * 1e-7,
                               manifest_hash="feed")
        path = tmp_path / "emb.bin"
        write_embeddings_binary(table, path)
        loaded = read_embeddings_binary(path)
        assert loaded.words == table.words
        assert loaded.manifest_hash == "feed"
        np.testing.assert_array_equal(loaded.vectors, table.vectors)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"WRONG!!!" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            read_embeddings_binary(path)
