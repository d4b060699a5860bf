import pytest

from tabtext.data_model import (
    CellValue,
    ColumnKind,
    ColumnSpec,
    TableMeta,
    TableSchema,
    group_rows,
    load_schema,
)
from tabtext.errors import ValidationError


def make_schema(time_column=None, extra_cols=()):
    columns = [
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="age", kind=ColumnKind.NUMERIC),
    ]
    if time_column:
        columns.append(ColumnSpec(name=time_column, kind=ColumnKind.TIMESTAMP))
    columns.extend(extra_cols)
    return TableSchema(
        meta=TableMeta(table_title="T"),
        columns=tuple(columns),
        entity_column="id",
        time_column=time_column,
    )


class TestSchemaInvariants:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValidationError):
            TableSchema(
                meta=TableMeta(),
                columns=(
                    ColumnSpec(name="a", kind=ColumnKind.NUMERIC),
                    ColumnSpec(name="a", kind=ColumnKind.NUMERIC),
                ),
                entity_column="a",
            )

    def test_entity_column_must_exist(self):
        with pytest.raises(ValidationError):
            TableSchema(
                meta=TableMeta(),
                columns=(ColumnSpec(name="a", kind=ColumnKind.NUMERIC),),
                entity_column="missing",
            )

    def test_at_most_one_timestamp_kind(self):
        with pytest.raises(ValidationError):
            make_schema(
                time_column="t",
                extra_cols=(ColumnSpec(name="t2", kind=ColumnKind.TIMESTAMP),),
            )

    def test_template_needs_exactly_one_placeholder(self):
        with pytest.raises(ValidationError):
            ColumnSpec(
                name="a", kind=ColumnKind.NUMERIC, descriptive_template="no placeholder"
            )
        with pytest.raises(ValidationError):
            ColumnSpec(
                name="a",
                kind=ColumnKind.NUMERIC,
                descriptive_template="{value} and {value}",
            )

    def test_label_defaults_to_name(self):
        col = ColumnSpec(name="bmi", kind=ColumnKind.NUMERIC)
        assert col.label == "bmi"


class TestParseTable:
    def test_direct_field_mapping(self, parse_text):
        rows = parse_text("id,age\np1,50\n", make_schema())
        assert len(rows) == 1
        assert rows[0].entity_id == "p1"
        cell = rows[0].cells[0]
        assert (cell.raw, cell.parsed, cell.missing) == ("50", 50.0, False)

    def test_missing_token_preserved(self, parse_text):
        rows = parse_text("id,age\np2,NaN\n", make_schema())
        cell = rows[0].cells[0]
        assert cell.missing and cell.raw == "NaN"

    def test_default_missing_tokens_case_insensitive(self, parse_text):
        rows = parse_text("id,age\np1,\np2,na\np3,NULL\np4,nAn\n", make_schema())
        assert all(r.cells[0].missing for r in rows)
        assert [r.cells[0].raw for r in rows] == ["", "na", "NULL", "nAn"]

    def test_corpus_size_convention(self, parse_text):
        lines = "id,age\n" + "".join(f"p{i},{i}\n" for i in range(1590))
        assert len(parse_text(lines, make_schema())) == 1590

    def test_header_missing_column_names_it(self, parse_text):
        with pytest.raises(ValidationError, match="line 1: header is missing schema column 'age'"):
            parse_text("id,weight\np1,50\n", make_schema())

    def test_bad_timestamp_reports_line_number(self, parse_text):
        schema = make_schema(time_column="t")
        with pytest.raises(ValidationError, match="line 3: unparseable timestamp 'soon'"):
            parse_text("id,age,t\np1,50,1.5\np2,51,soon\n", schema)

    def test_negative_timestamp_reports_line_number(self, parse_text):
        schema = make_schema(time_column="t")
        with pytest.raises(ValidationError, match="line 3: negative timestamp '-5'"):
            parse_text("id,age,t\np1,50,1.5\np2,51,-5\n", schema)

    def test_line_number_counts_line_breaks_inside_quoted_cells(self, parse_text):
        schema = make_schema(time_column="t", extra_cols=(ColumnSpec("note", ColumnKind.FREE_TEXT),))
        text = 'id,age,t,note\np1,50,1.5,"a\nb\nc"\np2,51,soon,d\n'
        with pytest.raises(ValidationError, match="line 5: unparseable"):
            parse_text(text, schema)

    @pytest.mark.parametrize("record", ["p2", "p2,51,x"])
    def test_record_width_must_match_header(self, parse_text, record):
        with pytest.raises(ValidationError, match="line 3: "):
            parse_text(f"id,age\np1,50\n{record}\np3,52\n", make_schema())

    def test_repeated_header_name_is_mismatch(self, parse_text):
        with pytest.raises(ValidationError, match="line 1: header repeats a column name"):
            parse_text("id,age,age\np1,50,60\n", make_schema())

    def test_timestamp_parsed_onto_row(self, parse_text):
        schema = make_schema(time_column="t")
        rows = parse_text("id,age,t\np1,50,1.5\n", schema)
        assert rows[0].timestamp == 1.5

    def test_no_time_column_means_no_timestamp(self, parse_text):
        rows = parse_text("id,age\np1,50\n", make_schema())
        assert rows[0].timestamp is None

    def test_lf_crlf_and_cr_line_ends_give_equal_rows(self, parse_text):
        schema = make_schema(time_column="t", extra_cols=(ColumnSpec("note", ColumnKind.FREE_TEXT),))
        text = 'id,age,t,note\np1,50,1.5,"a, b"\n\np2,NaN,2,\np2,51,3,c\n'
        rows = [parse_text(text.replace("\n", end), schema) for end in ("\n", "\r\n", "\r")]
        assert len(rows[0]) == 3
        assert rows[0] == rows[1] == rows[2]

    def test_round_trip_present_raws(self, parse_text):
        text = "id,age\np1,050\np2,5e1\np3, 50\n"
        rows = parse_text(text, make_schema())
        raws = [r.cells[0].raw for r in rows]
        assert raws == ["050", "5e1", " 50"]

    def test_deterministic_and_order_preserving(self, parse_text):
        text = "id,age\n" + "".join(f"p{i},{i}\n" for i in range(50))
        schema = make_schema()
        first = parse_text(text, schema)
        second = parse_text(text, schema)
        assert first == second
        assert [r.entity_id for r in first] == [f"p{i}" for i in range(50)]

    def test_cells_are_a_tuple_in_value_column_order(self, parse_text):
        # The header's order is not the schema's; the id and time columns hold no cell.
        schema = make_schema(time_column="t", extra_cols=(ColumnSpec("note", ColumnKind.FREE_TEXT),))
        rows = parse_text("note,t,age,id\nhi,1.5,50,p1\n", schema)
        assert [c.name for c in schema.value_columns] == ["age", "note"]
        assert type(rows[0].cells) is tuple
        assert [c.raw for c in rows[0].cells] == ["50", "hi"]
        assert (rows[0].entity_id, rows[0].timestamp) == ("p1", 1.5)

    def test_only_missing_tokens_become_missing(self, parse_text):
        rows = parse_text("id,age\np1,zero\np2,0\n", make_schema())
        assert not rows[0].cells[0].missing
        assert not rows[1].cells[0].missing


class TestGroupRows:
    def test_series_rows_keep_their_order_per_entity(self, parse_text):
        rows = parse_text("id,age,t\np2,1,9\np1,2,5\np2,3,1\n", make_schema("t"))
        grouped = group_rows("vitals", make_schema("t"), rows, ["p1", "p2"])
        assert {e: [r.cells[0].raw for r in rs] for e, rs in grouped.items()} == {
            "p2": ["1", "3"],
            "p1": ["2"],
        }

    @pytest.mark.parametrize(
        "time_column, text, message",
        [
            ("t", "id,age,t\np1,1,1\np9,2,1\n", "entity 'p9' in time-series source 'src' is not"),
            (None, "id,age\np9,1\np9,2\n", "static source 'src' has multiple rows for entity 'p9'"),
        ],
    )
    def test_breach_is_validation_error(self, parse_text, time_column, text, message):
        rows = parse_text(text, make_schema(time_column))
        with pytest.raises(ValidationError, match=f"^{message}"):
            group_rows("src", make_schema(time_column), rows, ["p1"])


class TestCellValue:
    def test_parsed_iff_finite(self):
        assert CellValue.present("50").parsed == 50.0
        assert CellValue.present("-1.5e3").parsed == -1500.0
        assert CellValue.present("inf").parsed is None
        assert CellValue.present("abc").parsed is None

    def test_absent_keeps_token(self):
        cell = CellValue.absent("NaN")
        assert cell.missing and cell.raw == "NaN" and cell.parsed is None


def test_load_schema_yaml(tmp_path):
    doc = """
meta:
  table_title: Vitals
  description: bedside measurements
entity_column: id
time_column: hour
columns:
  - name: id
    kind: categorical
  - name: hour
    kind: timestamp
  - name: heart_rate
    kind: numeric
    unit: bpm
    descriptive_template: "The heart rate is {value}"
"""
    path = tmp_path / "vitals.schema.yaml"
    path.write_text(doc)
    schema = load_schema(path)
    assert schema.meta.table_title == "Vitals"
    assert schema.time_column == "hour"
    assert next(c for c in schema.columns if c.name == "heart_rate").unit == "bpm"
    assert [c.name for c in schema.value_columns] == ["heart_rate"]
