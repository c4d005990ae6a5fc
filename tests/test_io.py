import json

import numpy as np
import pytest

import pencillab as pl
from pencillab import io as plio


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [3.0, -1.5j]])
        doc = plio.matrix_to_json(m)
        back = plio.matrix_from_json(doc)
        np.testing.assert_allclose(back, m)

    def test_missing_field(self):
        with pytest.raises(plio.ParseError, match="missing required field 'entries'"):
            plio.matrix_from_json({"rows": 1, "cols": 1})

    def test_shape_mismatch_position(self):
        doc = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0]]}
        with pytest.raises(plio.ParseError, match="expected 4 entries"):
            plio.matrix_from_json(doc)

    def test_nonfinite_entry_position(self):
        doc = {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [float("nan"), 0.0]]}
        with pytest.raises(plio.ParseError, match=r"entries\[1\]"):
            plio.matrix_from_json(doc)

    def test_bad_pair_position(self):
        doc = {"rows": 1, "cols": 1, "entries": [[1.0]]}
        with pytest.raises(plio.ParseError, match=r"entries\[0\]"):
            plio.matrix_from_json(doc)

    @pytest.mark.parametrize("rows, cols, field", [(True, True, "rows"), (1, False, "cols"),
                                                   (-1, 1, "rows"), (1, 1.0, "cols")])
    def test_dimensions_must_be_integers(self, rows, cols, field):
        # bool is an int subclass, but true is no row count
        doc = {"rows": rows, "cols": cols, "entries": [[1, 0]]}
        with pytest.raises(plio.ParseError, match=rf"^matrix\.{field}: expected a nonnegative"):
            plio.matrix_from_json(doc)


class TestPencilJson:
    def test_round_trip(self):
        p = pl.Pencil(np.eye(2), np.diag([1.0, 2.0]))
        back = plio.pencil_from_json(plio.pencil_to_json(p))
        np.testing.assert_allclose(back.a, p.a)
        np.testing.assert_allclose(back.b, p.b)

    def test_shape_mismatch(self):
        doc = {
            "a": plio.matrix_to_json(np.eye(2)),
            "b": plio.matrix_to_json(np.eye(3)),
        }
        with pytest.raises(plio.ParseError, match="shapes differ"):
            plio.pencil_from_json(doc)

    def test_load_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": [}', encoding="utf-8")
        with pytest.raises(plio.ParseError, match="line 1"):
            plio.load_pencil(path)


class TestStructureJson:
    def test_round_trip(self):
        s = pl.KroneckerStructure(
            col_minimal=[(0, 1), (2, 1)],
            row_minimal=[(1, 2)],
            jordan=[(2, 0.5 - 1.0j)],
            nilpotent=(1, 3),
        )
        back = plio.structure_from_json(plio.structure_to_json(s))
        assert back == s

    def test_field_names(self):
        s = pl.KroneckerStructure(col_minimal=[(1, 1)], row_minimal=[(1, 1)])
        doc = plio.structure_to_json(s)
        assert set(doc) == {"col_minimal", "row_minimal", "jordan", "nilpotent"}


class TestCatalog:
    def test_catalog_loads(self, catalog):
        assert len(catalog) >= 30
        for s in catalog:
            assert s.is_square
            assert 1 <= s.rows <= 10

    def test_singular_structure_round_trip(self, catalog):
        for s in catalog[:5]:
            back = plio.structure_from_json(plio.structure_to_json(s))
            assert back == s


class TestDeterministicDump:
    def test_sorted_and_stable(self):
        payload = {"b": 1.5, "a": [1, 2], "c": {"y": True, "x": None}}
        assert plio.dumps(payload) == plio.dumps(json.loads(plio.dumps(payload)))

    def test_numpy_scalars(self):
        payload = {"v": np.bool_(True), "k": np.int64(3), "x": np.float64(0.5)}
        doc = json.loads(plio.dumps(payload))
        assert doc == {"v": True, "k": 3, "x": 0.5}


class TestMembershipJson:
    def test_outside_fields(self):
        doc = plio.membership_to_json(pl.conv_hull_membership(np.eye(2), np.eye(2)))
        assert doc["verdict"] == "outside"
        assert doc["iterations"] >= 1
        assert doc["separation_margin"] > 0.0
        assert "inside_weights" not in doc

    def test_inside_weights(self):
        a, b = np.diag([1.0, -1.0, 0.5]), np.diag([1.0, 1.0, -2.0])
        res = pl.conv_hull_membership(a, b)
        doc = plio.membership_to_json(res)
        assert doc["verdict"] == "inside"
        assert doc["iterations"] == res.iterations >= 1
        assert doc["inside_weights"] == [float(w) for w in res.inside_certificate.weights]
        assert abs(sum(doc["inside_weights"]) - 1.0) < 1e-12
