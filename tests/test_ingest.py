import numpy as np
import pytest

from phcle.datamodel import VocabularyMaps
from phcle.errors import ParseError
from phcle.ingest import (
    hierarchy_to_relations,
    load_attribute_table,
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

    def test_rows_match_cell_by_cell_reference(self, tmp_path):
        # The cell-by-cell loop the row-at-a-time parser replaced.
        def reference(path, vocab):
            names = read_attribute_names(path)
            A = np.zeros((len(vocab.labels), len(names)))
            mask = np.zeros_like(A)
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                for line in fh:
                    cells = line.rstrip("\n").split("\t")
                    row = vocab.label_index(cells[0])
                    for j, cell in enumerate(cells[1:]):
                        if cell == "NA":
                            continue
                        A[row, j] = float(cell)
                        mask[row, j] = 1.0
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
        assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff in position ")


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
