"""Tests for the experiment registry and bulk regeneration."""

import pytest

from repro.bench import EXPERIMENTS, regenerate_all, render_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3",
            "figure1", "figure3", "figure4", "figure5", "figure6",
        }

    def test_render_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            render_experiment("table9")

    def test_render_table(self):
        text = render_experiment("table2")
        assert "3.91" in text

    def test_render_series_includes_plot(self):
        text = render_experiment("figure5")
        assert "p_n" in text
        assert "|" in text  # the ASCII plot frame

    def test_regenerate_all(self, tmp_path):
        written = regenerate_all(tmp_path / "out")
        assert set(written) == set(EXPERIMENTS)
        for path in written.values():
            assert path.exists()
            assert path.read_text().strip()


class TestCliRegen:
    def test_regen_command(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["regen", "--out", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        assert "8 artifacts regenerated" in out
        assert (tmp_path / "r" / "figure6.txt").exists()

    def test_second_regen_reproduces_files(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["regen", "--out", "a"]) == 0
        assert main(["--jobs", "2", "regen", "--out", "b"]) == 0
        for name in EXPERIMENTS:
            assert (tmp_path / "a" / f"{name}.txt").read_bytes() == (
                tmp_path / "b" / f"{name}.txt"
            ).read_bytes()
        # regen recomputes every time: it leaves nothing but its output.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_no_cache_flag(self, tmp_path, capsys):
        """There is deliberately no cache, so no flag to skip one."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["regen", "--out", str(tmp_path / "r"), "--no-cache"])
        assert exit_info.value.code == 2
        assert "--no-cache" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
