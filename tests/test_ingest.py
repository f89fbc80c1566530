import builtins
import contextlib
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from phcle import HyperParams, errors, ingest, save_model, train
from phcle.datamodel import VocabularyMaps
from phcle.errors import ParseError
from phcle.ingest import (
    hierarchy_to_relations,
    load_attribute_table,
    load_hierarchy_file,
    negative_bound_values,
    read_attribute_names,
)
from reference import RelationRecord, build_cooccurrence, load_relation_file


def negative_bound_oracle(D, k):
    # Scalar re-derivation, one entry at a time.
    rows, cols = D.shape
    total = sum(D[c, w] for c in range(rows) for w in range(cols))
    Q = np.zeros_like(D)
    for c in range(rows):
        for w in range(cols):
            if total == 0:
                Q[c, w] = D[c, w]
            else:
                context_mass = sum(D[c, j] for j in range(cols))
                label_mass = sum(D[i, w] for i in range(rows))
                Q[c, w] = k * context_mass * label_mass / total + D[c, w]
    return Q


class TestRelationRecord:
    def test_default_weight(self):
        assert RelationRecord("cat", "farm").weight == 1.0

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match="positive"):
            RelationRecord("cat", "farm", weight)


class TestBuildCooccurrence:
    def test_accumulates_repeats(self):
        vocab = VocabularyMaps(labels=("cat", "dog"), context_lists=(("farm", "home"),))
        records = [
            RelationRecord("cat", "farm", 1.0),
            RelationRecord("cat", "farm", 2.0),
            RelationRecord("dog", "home", 0.5),
        ]
        D = build_cooccurrence(records, vocab)
        assert np.array_equal(D.values, [[3.0, 0.0], [0.0, 0.5]])

    def test_order_invariant(self):
        vocab = VocabularyMaps(labels=("a", "b", "c"), context_lists=(("x", "y"),))
        rng = np.random.default_rng(4)
        records = [
            RelationRecord(vocab.labels[rng.integers(3)], vocab.contexts[rng.integers(2)], float(w))
            for w in rng.uniform(0.1, 2.0, size=40)
        ]
        forward = build_cooccurrence(records, vocab)
        backward = build_cooccurrence(list(reversed(records)), vocab)
        np.testing.assert_allclose(forward.values, backward.values, rtol=0, atol=1e-12)

    def test_unknown_label_names_record(self):
        vocab = VocabularyMaps(labels=("cat",), context_lists=(("farm",),))
        with pytest.raises(ValueError, match="label 'dog' unknown"):
            build_cooccurrence([RelationRecord("dog", "farm")], vocab)

    def test_unknown_context_names_record(self):
        vocab = VocabularyMaps(labels=("cat",), context_lists=(("farm",),))
        with pytest.raises(ValueError, match="context 'sea' unknown"):
            build_cooccurrence([RelationRecord("cat", "sea")], vocab)


class TestHierarchyToRelations:
    def test_chain_radius_two(self):
        # a-b-c: direct hops weigh 1, the two-hop a/c pair weighs decay.
        records = hierarchy_to_relations([("a", "b"), ("b", "c")], radius=2, decay=0.5)
        table = {(label, context): weight for context, label, weight in records}
        assert table == {
            ("a", "b"): 1.0,
            ("a", "c"): 0.5,
            ("b", "a"): 1.0,
            ("b", "c"): 1.0,
            ("c", "a"): 0.5,
            ("c", "b"): 1.0,
        }

    def test_radius_one_keeps_direct_edges_only(self):
        records = hierarchy_to_relations([("a", "b"), ("b", "c")], radius=1, decay=0.5)
        pairs = {(label, context) for context, label, _ in records}
        assert pairs == {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}

    def test_symmetric_weights(self):
        edges = [("root", "l"), ("root", "r"), ("l", "l1"), ("l", "l2"), ("r", "r1")]
        records = hierarchy_to_relations(edges, radius=3, decay=0.25)
        table = {(label, context): weight for context, label, weight in records}
        for (w, c), weight in table.items():
            assert table[(c, w)] == weight

    def test_decay_follows_hop_distance(self):
        edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
        records = hierarchy_to_relations(edges, radius=3, decay=0.3)
        table = {(label, context): weight for context, label, weight in records}
        assert table[("n0", "n3")] == pytest.approx(0.3 ** 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            hierarchy_to_relations([("a", "a")])

    def test_bad_radius_and_decay(self):
        with pytest.raises(ValueError):
            hierarchy_to_relations([("a", "b")], radius=0)
        with pytest.raises(ValueError):
            hierarchy_to_relations([("a", "b")], decay=0.0)
        with pytest.raises(ValueError):
            hierarchy_to_relations([("a", "b")], decay=1.5)


class TestAttributeTable:
    def write(self, tmp_path, text):
        path = tmp_path / "attrs.tsv"
        path.write_text(text)
        return path

    def vocab(self):
        return VocabularyMaps(
            labels=("cat", "dog", "horse"),
            context_lists=(("x",),),
            attribute_lists=(("furry", "big"),),
        )

    def test_basic_parse_with_na(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\tNA\ndog\t0.5\t2\n")
        ctx = load_attribute_table(path, self.vocab())
        assert np.array_equal(ctx.assoc, [[1.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
        assert np.array_equal(ctx.mask, [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["block reader", "line reader"])
    def test_mask_is_a_read_only_bool_array(self, tmp_path, newline):
        text = "label\tfurry\tbig\ncat\t1\tNA\ndog\t0.5\t2\n".replace("\n", newline)
        path = tmp_path / "attrs.tsv"
        path.write_bytes(text.encode())
        ctx = load_attribute_table(path, self.vocab())
        assert ctx.mask.dtype == bool and not ctx.mask.flags.writeable
        assert ctx.mask.tolist() == [[True, False], [True, True], [False, False]]

    def test_absent_label_fully_masked(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\t2\n")
        ctx = load_attribute_table(path, self.vocab())
        assert np.all(ctx.mask[1] == 0.0) and np.all(ctx.mask[2] == 0.0)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\n")
        with pytest.raises(ParseError) as err:
            load_attribute_table(path, self.vocab())
        assert err.value.line == 2

    def test_unknown_label_reports_line(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\npig\t1\t2\n")
        with pytest.raises(ParseError, match="label 'pig' unknown") as err:
            load_attribute_table(path, self.vocab())
        assert err.value.line == 2

    def test_duplicate_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\t2\ncat\t1\t2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_attribute_table(path, self.vocab())

    def test_header_mismatch_rejected(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\nchat\t1\n")
        with pytest.raises(ValueError, match="do not match"):
            load_attribute_table(path, self.vocab())

    def test_attribute_count_comes_from_header(self, tmp_path):
        names = tuple(f"attr{i}" for i in range(85))
        path = self.write(tmp_path, "label\t" + "\t".join(names) + "\n")
        assert read_attribute_names(path) == names

    def test_non_numeric_cell_reports_cell_and_line(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\tNA\ndog\tNA\tlarge\n")
        with pytest.raises(ParseError, match="non-numeric cell 'large'") as err:
            load_attribute_table(path, self.vocab())
        assert err.value.line == 3

    def test_first_bad_line_in_file_order_is_reported(self, tmp_path):
        path = self.write(tmp_path, "label\tfurry\tbig\ncat\t1\tNA\ndog\tinf\t2\n\nhorse\tabc\t1\n")
        with pytest.raises(ParseError, match="non-finite cell 'inf'") as err:
            load_attribute_table(path, self.vocab())
        assert err.value.line == 3

    def test_rows_match_cell_by_cell_reference(self, tmp_path):
        # The cell-by-cell loop the row-at-a-time parser replaced.
        def reference(path, vocab):
            names = read_attribute_names(path)
            A = np.zeros((len(vocab.labels), len(names)))
            mask = np.zeros(A.shape, dtype=bool)
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                for line in fh:
                    cells = line.rstrip("\n").split("\t")
                    row = vocab.label_index(cells[0])
                    for j, cell in enumerate(cells[1:]):
                        if cell == "NA":
                            continue
                        A[row, j] = float(cell)
                        mask[row, j] = True
            return A, mask

        rng = np.random.default_rng(5)
        labels = tuple(f"L{i}" for i in range(30))
        names = tuple(f"a{j}" for j in range(12))
        vocab = VocabularyMaps(labels=labels, context_lists=(("x",),), attribute_lists=(names,))
        lines = ["label\t" + "\t".join(names)]
        for i in rng.permutation(len(labels))[:-3]:  # three labels have no row
            cells = [
                "NA" if rng.uniform() < 0.3 else repr(float(v))
                for v in rng.standard_normal(len(names)) * 10.0 ** rng.integers(-300, 300, len(names))
            ]
            cells[0] = "-0.0" if i % 5 == 0 else cells[0]
            lines.append(labels[i] + "\t" + "\t".join(cells))
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        ctx = load_attribute_table(path, vocab)
        A, mask = reference(path, vocab)
        assert ctx.assoc.tobytes() == A.tobytes()
        assert ctx.mask.tobytes() == mask.tobytes()
        assert (mask == 0).all(axis=1).sum() == 3

    def test_undecodable_row_past_the_first_read_names_the_file(self, tmp_path):
        # The header read decodes only the first 8 KB, so this byte is met
        # by the row loop.
        path = tmp_path / "attrs.tsv"
        path.write_bytes(b"label\tfurry\tbig\ncat\t1\t2\n" + b"\n" * 10000 + b"d\xffg\t1\t2\n")
        assert read_attribute_names(path) == ("furry", "big")
        with pytest.raises(ParseError) as err:
            load_attribute_table(path, self.vocab())
        assert str(err.value) == f"{path}:10003: 'utf-8' codec can't decode byte 0xff in position 10025: invalid start byte"


class TestAttributeTableBlocks:
    """Regular tables go through the block reader alone: a silent fall
    back to the line reader would keep every result and lose the speed."""

    @staticmethod
    def table(tmp_path, labels, names, values, rng):
        """A table shaped like the benchmark's: 40% NA cells, a fifth of
        the labels without a row, and no final newline."""
        lines = ["\t".join(("label", *names))]
        for i in np.sort(rng.permutation(len(labels))[: len(labels) * 4 // 5]).tolist():
            cells = ["NA" if na else repr(v) for v, na in zip(values[i].tolist(), rng.uniform(size=len(names)) < 0.4)]
            lines.append("\t".join((labels[i], *cells)))
        path = tmp_path / "attrs.tsv"
        path.write_text("\n".join(lines), encoding="utf-8")
        vocab = VocabularyMaps(labels=labels, context_lists=(("x",),), attribute_lists=(names,))
        return path, vocab

    @pytest.mark.parametrize("block", [ingest._TABLE_BLOCK_BYTES, 100], ids=["default blocks", "rows straddle blocks"])
    def test_regular_table_never_reaches_the_line_reader(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(4)
        labels = tuple(sorted(f"L{i:03d}" for i in range(60))) + ("ferme", "кот", "猫")
        names = tuple(f"a{j}" for j in range(9))
        values = rng.standard_normal((len(labels), len(names))) * 10.0 ** rng.integers(-300, 300, (len(labels), len(names)))
        values[::7, 0] = -0.0
        path, vocab = self.table(tmp_path, labels, names, values, rng)
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            A, mask = ingest._table_lines(fh, path, vocab, len(names))
        assert 0.4 < mask.mean() < 0.6 and np.signbit(A).any()
        monkeypatch.setattr(ingest, "_TABLE_BLOCK_BYTES", block)
        monkeypatch.setattr(ingest, "_table_lines", mock.Mock(side_effect=AssertionError("the line reader ran")))
        context = load_attribute_table(path, vocab)
        assert context.assoc.tobytes() == A.tobytes()
        assert context.mask.tobytes() == mask.tobytes()

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "lone cr"])
    def test_header_ending_in_cr_leaves_the_rows_to_the_block_reader(self, tmp_path, monkeypatch, end):
        # The rows start where the text reader ended the header line.
        rng = np.random.default_rng(8)
        labels = tuple(f"L{i:03d}" for i in range(40))
        names = ("a0", "a1", "a2")
        path, vocab = self.table(tmp_path, labels, names, rng.standard_normal((40, 3)), rng)
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", end, 1))
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            A, mask = ingest._table_lines(fh, path, vocab, len(names))
        monkeypatch.setattr(ingest, "_table_lines", mock.Mock(side_effect=AssertionError("the line reader ran")))
        context = load_attribute_table(path, vocab)
        assert context.assoc.tobytes() == A.tobytes()
        assert context.mask.tobytes() == mask.tobytes()

    def test_memory_stays_within_the_result_and_a_few_blocks(self, tmp_path, monkeypatch):
        # 4000 x 150 cells of 3 decimals, like the wide benchmark's tables.
        # Past the reader's two arrays and AttributeContext's copies of
        # them, the peak holds the negated mask that finds the unobserved
        # cells (0.6 MB here) or a block's text, tokens and values; one
        # block for the whole file peaked about 10 MB higher. The slack is
        # 16 blocks of 256 KB.
        rng = np.random.default_rng(5)
        labels = tuple(f"L{i:05d}" for i in range(4000))
        names = tuple(f"a{j:03d}" for j in range(150))
        path, vocab = self.table(tmp_path, labels, names, np.round(rng.standard_normal((4000, 150)), 3), rng)
        monkeypatch.setattr(ingest, "_table_lines", mock.Mock(side_effect=AssertionError("the line reader ran")))
        tracemalloc.start()
        try:
            context = load_attribute_table(path, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * context.assoc.nbytes + 16 * 2**18

    def test_bool_masks_keep_a_table_load_below_float_masks(self, tmp_path):
        # The same 4000 x 150 table. Its load holds the reader's assoc and
        # AttributeContext's copy, their bool masks and the negated mask
        # that finds the unobserved cells: the peak measured 2.38 x
        # assoc.nbytes (10.9 MiB), and 2.80 x (12.8 MiB) while the context
        # gathered the observed values to check them. Float64 masks took
        # it to 4.61 x (21.1 MiB).
        rng = np.random.default_rng(5)
        labels = tuple(f"L{i:05d}" for i in range(4000))
        names = tuple(f"a{j:03d}" for j in range(150))
        path, vocab = self.table(tmp_path, labels, names, np.round(rng.standard_normal((4000, 150)), 3), rng)
        tracemalloc.start()
        try:
            context = load_attribute_table(path, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * context.assoc.nbytes


@contextlib.contextmanager
def pipe_holding(data: bytes):
    """Yield a ``/dev/fd`` path to a pipe that a thread fills with ``data``,
    so that a table larger than the pipe's buffer cannot block the test."""
    r, w = os.pipe()

    def fill():
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(w, view) :]
        except BrokenPipeError:  # the reader stopped early
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()


def outcome(path, vocab):
    """The table's bits, or its error text past the path and its line."""
    try:
        context = load_attribute_table(path, vocab)
    except ParseError as exc:
        return str(exc).removeprefix(str(path)), exc.line
    return context.assoc.tobytes(), context.mask.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestAttributeTableHandle:
    """A table is opened once, and a pipe reads as the file does."""

    LABELS = tuple(f"L{i:04d}" for i in range(3000))
    NAMES = ("a", "b", "c")
    VOCAB = VocabularyMaps(labels=LABELS, context_lists=(("x", "y"),), attribute_lists=(NAMES,))

    def table(self, rows):
        """``rows`` lines of 40% NA cells; the tenth label, on line 11, has
        no row."""
        rng = np.random.default_rng(6)
        lines = [b"label\ta\tb\tc\n"]
        for i in range(rows):
            if i != 9:
                cells = ["NA" if rng.uniform() < 0.4 else repr(v) for v in rng.standard_normal(3).tolist()]
                lines.append("\t".join((self.LABELS[i], *cells)).encode() + b"\n")
        return b"".join(lines)

    # Past the 8 KB the header's text read takes; past a 64 KB pipe buffer;
    # CRLF, which the line reader reads.
    TABLES = {"over 8 KB": (300, b"\n"), "over 64 KB": (3000, b"\n"), "crlf": (600, b"\r\n")}

    @pytest.mark.parametrize("rows, newline", TABLES.values(), ids=TABLES.keys())
    def test_pipe_reads_as_the_file_does(self, tmp_path, rows, newline):
        data = self.table(rows).replace(b"\n", newline)
        assert len(data) > (8192 if rows < 3000 else 65536)
        path = tmp_path / "attrs.tsv"
        path.write_bytes(data)
        expected = outcome(path, self.VOCAB)
        assert isinstance(expected[0], bytes) and np.frombuffer(expected[1], dtype=bool).sum() > 0.5 * rows
        with pipe_holding(data) as piped:
            assert outcome(piped, self.VOCAB) == expected

    # A non-finite cell the text reader meets past its first read, and an
    # undecodable byte past it in a CRLF table, which the line reader reads
    # in the same 8 KB pieces as from the file.
    BAD = {"inf past 8 KB": (b"\nL2501", b"\nL0009\tinf\tNA\t1\nL2501"), "0xff past 8 KB, crlf": (b"L2500", b"L25\xff0")}

    @pytest.mark.parametrize("old, new", BAD.values(), ids=BAD.keys())
    def test_pipe_error_reads_as_the_file_error(self, tmp_path, old, new):
        data = self.table(3000).replace(old, new)
        if b"\xff" in new:
            data = data.replace(b"\n", b"\r\n")
        path = tmp_path / "attrs.tsv"
        path.write_bytes(data)
        expected = outcome(path, self.VOCAB)
        assert expected[0].startswith((":2502: non-finite cell 'inf'", ":2501: 'utf-8' codec can't decode byte 0xff in position 113928:"))
        with pipe_holding(data) as piped:
            assert outcome(piped, self.VOCAB) == expected

    CASES = {"blocks": None, "crlf": (b"\n", b"\r\n"), "non-finite": (b"\nL2501", b"\nL0009\tnan\tNA\t1\nL2501"), "pipe": None}

    @pytest.mark.parametrize("case", CASES)
    def test_the_path_is_opened_once(self, tmp_path, monkeypatch, case):
        data = self.table(3000)
        if self.CASES[case]:
            data = data.replace(*self.CASES[case])
        path = tmp_path / "attrs.tsv"
        path.write_bytes(data)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return builtins.open(file, *args, **kwargs)

        # The table's reader opens it through errors._opened.
        for module in (ingest, errors):
            monkeypatch.setattr(module, "open", counting_open, raising=False)
        with contextlib.ExitStack() as stack:
            if case == "pipe":
                path = stack.enter_context(pipe_holding(data))
            result = outcome(path, self.VOCAB)
        assert opened == [path]
        if case == "non-finite":
            assert result == (":2502: non-finite cell 'nan'", 2502)
        else:
            assert isinstance(result[0], bytes)

    def test_training_on_a_piped_table_writes_the_same_model(self, tmp_path):
        data = self.table(3000)
        path = tmp_path / "attrs.tsv"
        path.write_bytes(data)
        D = np.random.default_rng(7).poisson(2.0, (2, len(self.LABELS))).astype(float)
        hyper = HyperParams(dim=4, outer_iters=2, inner_max_iter=3, step_size=1e-3)
        with pipe_holding(data) as piped:
            sources = {"file": path, "pipe": piped}
            for name, source in sources.items():
                context = load_attribute_table(source, self.VOCAB)
                model, _ = train(D, context.assoc, context.mask, hyper, self.VOCAB)
                save_model(tmp_path / f"{name}.bin", model, self.VOCAB, hyper)
        assert (tmp_path / "pipe.bin").read_bytes() == (tmp_path / "file.bin").read_bytes()


class TestRelationFile:
    def test_parse_with_and_without_weight(self, tmp_path):
        path = tmp_path / "rel.tsv"
        path.write_text("cat\tfarm\ndog\thome\t2.5\n")
        records = load_relation_file(path)
        assert records == [RelationRecord("cat", "farm", 1.0), RelationRecord("dog", "home", 2.5)]

    def test_nonpositive_weight_reports_line(self, tmp_path):
        path = tmp_path / "rel.tsv"
        path.write_text("cat\tfarm\n" "dog\thome\t-1\n")
        with pytest.raises(ParseError) as err:
            load_relation_file(path)
        assert err.value.line == 2


class TestNegativeBound:
    def test_single_entry(self):
        # one label, one context, count 2, one negative sample
        D = np.array([[2.0]])
        Q = negative_bound_values(D, 1)
        assert Q[0, 0] == 4.0

    def test_two_by_two_against_oracle(self):
        D = np.array([[1.0, 0.0], [1.0, 2.0]])
        Q = negative_bound_values(D, 2)
        expected = negative_bound_oracle(D, 2)
        np.testing.assert_allclose(Q, expected, rtol=0, atol=0)
        assert np.array_equal(Q, [[2.0, 1.0], [4.0, 5.0]])

    def test_random_matches_oracle_and_dominates_counts(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            D = rng.integers(0, 6, size=shape).astype(float)
            k = int(rng.integers(0, 12))
            Q = negative_bound_values(D, k)
            np.testing.assert_allclose(Q, negative_bound_oracle(D, k), rtol=1e-13)
            assert np.all(Q >= D)

    def test_zero_mass_returns_counts(self):
        D = np.zeros((3, 2))
        Q = negative_bound_values(D, 10)
        assert np.array_equal(Q, D)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            negative_bound_values(np.array([[1.0]]), -1)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_undecodable_hierarchy_byte_reads_the_same_from_a_pipe(tmp_path):
    # Past the text reader's first 8 KB piece: the error gives the byte's
    # line and its position in the file, not in the piece.
    data = b"root\ta\n" * 2000 + b"a\tb\xff\n"
    path = tmp_path / "h.tsv"
    path.write_bytes(data)
    with pipe_holding(data) as piped:
        for source in (path, piped):
            with pytest.raises(ParseError) as err:
                load_hierarchy_file(source)
            assert str(err.value) == f"{source}:2001: 'utf-8' codec can't decode byte 0xff in position 14003: invalid start byte"
