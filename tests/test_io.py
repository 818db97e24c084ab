import numpy as np
import pytest

from lockern.features import Spectrogram
from lockern.io import (
    read_manifest,
    read_spectrogram_csv,
    write_manifest,
    write_spectrogram_csv,
)


class TestSpectrogramCsv:
    def test_real_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        spec = Spectrogram(data=rng.standard_normal((5, 7)), state="magnitude")
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(spec, path)
        back = read_spectrogram_csv(path, label=2, subject="A")
        np.testing.assert_array_equal(back.data, spec.data)
        assert back.state == "magnitude"
        assert back.label == 2
        assert back.subject == "A"

    def test_state_preserved(self, tmp_path):
        spec = Spectrogram(data=np.ones((2, 3)), state="binary")
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(spec, path)
        assert read_spectrogram_csv(path).state == "binary"

    def test_complex_pairs_roundtrip_to_magnitude(self, tmp_path):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        path = tmp_path / "spec.csv"
        # hand-written complex file; reading recovers the magnitudes
        with open(path, "w", newline="\n") as fh:
            fh.write("complex,magnitude\n")
            for row in z:
                fh.write(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row) + "\n")
        back = read_spectrogram_csv(path)
        np.testing.assert_allclose(back.data, np.abs(z), rtol=1e-15)
        assert back.state == "magnitude"

    def test_write_complex_pairs(self, tmp_path):
        z = np.array([[1.0 + 2.0j, -3.0j]])
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(Spectrogram(data=z), path, complex_pairs=True)
        lines = path.read_text().splitlines()
        assert lines[0] == "complex,magnitude"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 2.0, 0.0, -3.0]
        back = read_spectrogram_csv(path)
        np.testing.assert_allclose(back.data, np.abs(z))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_spectrogram_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in [
            ("real,magnitude\n1.0,2.0\n1.0,oops\n", ":3: malformed CSV row"),
            # re = [1, 3] and im = [2] would broadcast to two magnitudes
            ("complex,magnitude\n1,2,3\n", ":2: complex row has 3 values, not real,imag pairs"),
            ("real,magnitude\n1.0,2.0\n1.0,2.0\n1.0\n", ":4: row has 1 values, the first row 2"),
            ("complex,magnitude\n1,2,3,4\n1,2\n", ":3: row has 2 values, the first row 4"),
            ("real,magnitude\n", ": no data rows after the header"),
            ("complex,magnitude\n", ": no data rows after the header"),
            ("real", ": no data rows after the header"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError) as info:
                read_spectrogram_csv(path)
            assert str(info.value) == f"{path}{message}"


class TestManifest:
    def test_roundtrip_and_relative_paths(self, tmp_path):
        spec = Spectrogram(data=np.ones((2, 2)))
        write_spectrogram_csv(spec, tmp_path / "s0.csv")
        manifest = tmp_path / "manifest.csv"
        write_manifest([("s0.csv", 1, "A")], manifest)
        samples = read_manifest(manifest)
        assert len(samples) == 1
        path, label, subject = samples[0]
        assert path == str(tmp_path / "s0.csv")
        assert label == 1
        assert subject == "A"
        np.testing.assert_array_equal(read_spectrogram_csv(path).data, spec.data)

    def test_absolute_paths_kept(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest([("/data/s.csv", 0, "B")], manifest)
        assert read_manifest(manifest)[0][0] == "/data/s.csv"

    def test_blank_lines_skipped(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label,subject\n\na.csv,0,A\n\n")
        assert len(read_manifest(manifest)) == 1

    def test_wrong_column_count(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label,subject\na.csv,0\n")
        with pytest.raises(ValueError, match=r":2"):
            read_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_manifest(manifest)
