import numpy as np
import pytest

from jacksonlab import Grid, PreconditionError, modulus_estimate, target_from_csv
from jacksonlab.corpus import CORPUS, get_target


class TestCorpus:
    def test_names(self):
        expected = {
            "abs-half", "sqrt", "identity", "const", "holder-cusp",
            "triangle", "cos", "const-periodic",
        }
        assert set(CORPUS) == expected

    def test_unknown_name_lists_valid(self):
        with pytest.raises(PreconditionError, match="abs-half"):
            get_target("nope")

    def test_moduli_are_sharp(self):
        # the grid estimate should come close to the analytic value from below
        grid = Grid.uniform(8001)
        for name, delta in [
            ("abs-half", 0.1), ("sqrt", 0.04), ("identity", 0.2),
            ("holder-cusp", 0.09), ("triangle", 0.15), ("cos", 0.2),
        ]:
            g = CORPUS[name]
            exact = g.analytic_modulus(delta)
            est = modulus_estimate(g, delta, grid)
            assert est <= exact + 1e-12
            assert est >= exact - 0.02 * exact - 1e-3

    def test_triangle_range_and_slope(self):
        g = CORPUS["triangle"]
        xs = np.linspace(0, 1, 1001)
        vals = g(xs)
        assert vals.min() == 0.0 and vals.max() == pytest.approx(1.0)
        assert g(np.array([0.25]))[0] == pytest.approx(0.5)


class TestCsvIngestion:
    def _write(self, tmp_path, rows, header=False):
        path = tmp_path / "target.csv"
        lines = (["x,y"] if header else []) + [f"{x},{y}" for x, y in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_piecewise_linear(self, tmp_path):
        path = self._write(tmp_path, [(0, 0), (0.5, 1), (1, 0)], header=True)
        g = target_from_csv(path)
        assert g(np.array([0.25]))[0] == pytest.approx(0.5)
        assert g(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_periodic_wraps(self, tmp_path):
        path = self._write(tmp_path, [(0, 0.2), (0.5, 1), (1, 0.2)])
        g = target_from_csv(path, periodic=True)
        assert g.periodic
        assert g(np.array([1.25]))[0] == pytest.approx(g(np.array([0.25]))[0])

    def test_periodic_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, [(0, 0.0), (1, 1.0)])
        with pytest.raises(PreconditionError, match="periodic"):
            target_from_csv(path, periodic=True)

    def test_non_increasing_rejected(self, tmp_path):
        path = self._write(tmp_path, [(0, 0), (0.6, 1), (0.4, 0.5), (1, 0)])
        with pytest.raises(PreconditionError, match="increasing"):
            target_from_csv(path)

    def test_bad_endpoints_rejected(self, tmp_path):
        path = self._write(tmp_path, [(0.1, 0), (1, 1)])
        with pytest.raises(PreconditionError, match="start at 0"):
            target_from_csv(path)

    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_nonfinite_y_rejected(self, tmp_path, y):
        path = self._write(tmp_path, [(0, 0), (0.5, y), (1, 0)])
        with pytest.raises(PreconditionError, match="finite"):
            target_from_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\noops\n1,1\n")
        with pytest.raises(PreconditionError, match="malformed"):
            target_from_csv(path)

    @pytest.mark.parametrize("text", ["x,y\n0,abc\n0,1\n1,2\n",
                                      "x,y\nfoo,bar\nbaz\n0,0\n1,1\n",
                                      "\nx,y\n\nfoo,bar\n0,0\n1,1\n"],
                             ids=["bad-y", "two-headers", "blank-lines"])
    def test_only_the_first_row_may_be_a_header(self, tmp_path, text):
        # a non-numeric row after the first non-empty one is not skipped as a header
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(PreconditionError, match="malformed"):
            target_from_csv(path)

    def test_header_after_blank_lines_is_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\nx,y\n\n0,0\n1,2\n")
        assert target_from_csv(path)(np.array([0.5]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("header", [b"", b"x,y\n"], ids=["no-header", "header"])
    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path, header):
        # with the mark read as text, "0,0" was unparsable and skipped as a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"0,0\n0.5,1\n1,0\n")
        g = target_from_csv(path)
        assert g(np.array([0.0, 0.25, 0.5])) == pytest.approx([0.0, 0.5, 1.0])

    @pytest.mark.parametrize("text", ["0,0,9\n0.5,1\n1,0\n",
                                      "x,y\n0,0\n0.5,1,2\n1,0\n",
                                      "0\n0.5,1\n1,0\n",
                                      "0,0\n0.5,1\n1,0,\n"],
                             ids=["third-field-first", "third-field-later",
                                  "one-field-first", "trailing-comma"])
    def test_a_row_of_numbers_has_exactly_two_fields(self, tmp_path, text):
        # a third field was dropped, and a one-number first row skipped as a header
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(PreconditionError, match="malformed"):
            target_from_csv(path)
