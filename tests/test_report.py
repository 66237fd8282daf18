"""Tests for the reproduction-report generator."""

from repro.experiments.report import PAPER_HEADLINES, build_report


class TestReport:
    def test_headlines_defined(self):
        assert set(PAPER_HEADLINES) == {"me_speedup", "throughput", "power"}


def build_report_quick() -> str:
    """Tiny-input version of build_report for testing the renderer."""
    import io
    from repro.experiments.table1 import format_table1, run_table1
    from repro.experiments.fig3 import format_fig3, run_fig3

    out = io.StringIO()
    out.write("# Reproduction report\n\n")
    t1 = run_table1(width=96, height=80, num_frames=8, tilings=[(1, 1)])
    out.write(format_table1(t1) + "\n")
    f3 = run_fig3(width=96, height=80, num_frames=8)
    out.write(format_fig3(f3) + "\n")
    return out.getvalue()


class TestReportRendering:
    def test_sections_render(self):
        text = build_report_quick()
        assert "Reproduction report" in text
        assert "TABLE I" in text
        assert "FIG. 3" in text

    def test_cli_writes_file(self, tmp_path, monkeypatch):
        """The module-level main writes the report file (patched to the
        tiny builder so the test stays fast)."""
        import repro.experiments.report as mod
        monkeypatch.setattr(
            mod, "build_report", lambda quick=True, seed=0: build_report_quick()
        )
        out = tmp_path / "r.md"
        mod.main(["--out", str(out)])
        assert out.read_text().startswith("# Reproduction report")
