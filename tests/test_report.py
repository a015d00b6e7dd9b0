import pytest

from korpus.dedup import DedupReport
from korpus.report import (
    CompositionReport, CompositionRow, duplicate_ratio, parse_report, render,
)


def paper_scale_report(duplicate_tokens, input_tokens):
    return DedupReport(
        input_tokens=input_tokens,
        duplicate_tokens=duplicate_tokens,
        removed_docs=0,
        removed_tokens=0,
        spans=0,
        stage="gc4",
    )


class TestDuplicateRatio:
    def test_gc4_scale_figures(self):
        report = paper_scale_report(int(35.3e9), int(74.6e9))
        assert duplicate_ratio(report) == pytest.approx(0.4732, abs=1e-4)

    def test_news_scale_figures(self):
        report = paper_scale_report(int(9.3e9), int(16e9))
        assert duplicate_ratio(report) == pytest.approx(0.5813, abs=1e-4)

    def test_zero_duplicates(self):
        assert duplicate_ratio(paper_scale_report(0, 100)) == 0.0

    def test_zero_input_is_error(self):
        with pytest.raises(ValueError):
            duplicate_ratio(paper_scale_report(0, 0))


def sample_composition():
    return CompositionReport(rows=(
        CompositionRow(domain="formal", source="gc4", doc_count=10, token_count=800, share=0.8),
        CompositionRow(domain="informal", source="reddit", doc_count=5, token_count=200, share=0.2),
    ))


class TestRender:
    def test_empty_composition_totals_only(self):
        md = render(CompositionReport(rows=()), "markdown")
        assert "**total**" in md and "| 0 | 0 |" in md

    def test_deterministic(self):
        report = sample_composition()
        assert render(report, "markdown") == render(report, "markdown")
        assert render(report, "json") == render(report, "json")

    def test_json_round_trip_fixed_point(self):
        report = sample_composition()
        rendered = render(report, "json")
        assert render(parse_report(rendered), "json") == rendered
        dedup = paper_scale_report(35, 100)
        rendered = render(dedup, "json")
        assert render(parse_report(rendered), "json") == rendered

    def test_markdown_contains_billions_column(self):
        report = paper_scale_report(int(35.3e9), int(74.6e9))
        md = render(report, "markdown")
        assert "| 74.6 |" in md and "| 35.3 |" in md
        assert "| 0.4732 |" in md

    def test_markdown_rows(self):
        md = render(sample_composition(), "markdown")
        assert "| formal | gc4 | 10 | 800 | 0.0 | 0.8000 |" in md
        assert "| **total** | | 15 | 1000 | 0.0 | 1.0000 |" in md

    def test_total_share_of_rows_without_tokens(self):
        """The total line's share is the rows' sum, 0 when no row has a token."""
        report = CompositionReport(rows=(
            CompositionRow(domain="formal", source="gc4", doc_count=2, token_count=0, share=0.0),
            CompositionRow(domain="informal", source="reddit", doc_count=1, token_count=0,
                           share=0.0),
        ))
        total = render(report, "markdown").splitlines()[-1]
        assert total == "| **total** | | 3 | 0 | 0.0 | 0.0000 |"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(sample_composition(), "yaml")

    def test_share_sum_invariant(self):
        report = sample_composition()
        assert abs(sum(r.share for r in report.rows) - 1.0) <= 1e-9

    def test_totals_equal_column_sums(self):
        report = sample_composition()
        docs, tokens = report.totals()
        assert docs == 15 and tokens == 1000

    def test_parse_unknown_type(self):
        with pytest.raises(ValueError):
            parse_report('{"type": "mystery"}')

    @pytest.mark.parametrize("text,message", [
        ('{"type": "dedup"}', "needs exactly the fields"),
        ('{"type": "dedup", "input_tokens": 100, "duplicate_tokens": 40, "removed_docs": 1, '
         '"removed_tokens": 10, "spans": 2, "stage": "gc4", "extra": 1}', "needs exactly"),
        ('{"type": "dedup", "input_tokens": "100", "duplicate_tokens": 40, "removed_docs": 1, '
         '"removed_tokens": 10, "spans": 2, "stage": "gc4"}', "'input_tokens' is not a JSON integer"),
        ('{"type": "composition"}', "needs a 'rows' list"),
        ('{"type": "composition", "rows": [{"domain": "formal", "source": "gc4", '
         '"doc_count": 10, "share": 1.0}]}', "composition row 0 needs exactly the fields"),
        ('{"type": "composition", "rows": [7]}', "composition row 0 is not a JSON object"),
    ], ids=["dedup-empty", "dedup-extra-field", "dedup-string-count", "composition-no-rows",
            "composition-row-missing-key", "composition-row-not-object"])
    def test_parse_checks_fields(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_report(text)
