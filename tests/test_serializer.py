import json
from pathlib import Path

from hypothesis import given, strategies as st

from golden_fixture import GOLDEN_SCHEMA, golden_configs, golden_rows
from tabtext.data_model import CellValue, ColumnKind, ColumnSpec, TableMeta, TableSchema
from tabtext.serializer import (
    MissingPolicy,
    SerializationConfig,
    serialize_cell,
    serialize_row,
)

TERSE = SerializationConfig(descriptive=False)
COL = ColumnSpec(name="bmi", kind=ColumnKind.NUMERIC)


def config(policy=MissingPolicy.ENCODE_MISSING, meta=False, descriptive=False):
    return SerializationConfig(
        missing_policy=policy, include_meta=meta, descriptive=descriptive
    )


class TestSerializeCell:
    def test_present_terse(self):
        col = ColumnSpec(name="gender", kind=ColumnKind.BINARY)
        assert serialize_cell(col, CellValue.present("female"), TERSE) == "gender is female"

    def test_present_with_unit(self):
        col = ColumnSpec(name="age", kind=ColumnKind.NUMERIC, unit="years")
        assert serialize_cell(col, CellValue.present("50"), TERSE) == "age is 50 years"

    def test_present_descriptive_template(self):
        col = ColumnSpec(
            name="age",
            kind=ColumnKind.NUMERIC,
            descriptive_template="The patient is {value} years old",
        )
        out = serialize_cell(col, CellValue.present("50"), config(descriptive=True))
        assert out == "The patient is 50 years old"

    def test_descriptive_falls_back_to_terse_without_template(self):
        out = serialize_cell(COL, CellValue.present("22.5"), config(descriptive=True))
        assert out == "bmi is 22.5"

    def test_missing_zero_pad(self):
        out = serialize_cell(COL, CellValue.absent("NaN"), config(MissingPolicy.ZERO_PAD))
        assert out == "bmi is 0"

    def test_missing_encode_missing(self):
        out = serialize_cell(
            COL, CellValue.absent("NaN"), config(MissingPolicy.ENCODE_MISSING)
        )
        assert out == "bmi is missing"

    def test_missing_exclude(self):
        assert serialize_cell(COL, CellValue.absent("NaN"), config(MissingPolicy.EXCLUDE)) is None

    def test_missing_keep_original(self):
        out = serialize_cell(
            COL, CellValue.absent("NaN"), config(MissingPolicy.KEEP_ORIGINAL)
        )
        assert out == "bmi is NaN"

    def test_keep_original_empty_token(self):
        out = serialize_cell(COL, CellValue.absent(""), config(MissingPolicy.KEEP_ORIGINAL))
        assert out == "bmi is "

    def test_missing_ignores_descriptive_template(self):
        col = ColumnSpec(
            name="bmi",
            kind=ColumnKind.NUMERIC,
            descriptive_template="The body mass index is {value}",
        )
        out = serialize_cell(
            col,
            CellValue.absent("NaN"),
            config(MissingPolicy.ENCODE_MISSING, descriptive=True),
        )
        assert out == "bmi is missing"


SCHEMA = TableSchema(
    meta=TableMeta(table_title="Demographics", description="patient background table"),
    columns=(
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="age", kind=ColumnKind.NUMERIC),
        ColumnSpec(name="gender", kind=ColumnKind.BINARY),
    ),
    entity_column="id",
)


def make_row(age="50", gender="female", missing=()):
    cells = (
        CellValue.absent("NaN") if "age" in missing else CellValue.present(age),
        CellValue.absent("") if "gender" in missing else CellValue.present(gender),
    )
    from tabtext.data_model import Row

    return Row(entity_id="p1", cells=cells)


class TestSerializeRow:
    def test_join_rule(self):
        assert serialize_row(SCHEMA, make_row(), config()) == "age is 50; gender is female."

    def test_meta_prefix(self):
        out = serialize_row(SCHEMA, make_row(), config(meta=True))
        assert out == "Demographics: patient background table. age is 50; gender is female."

    def test_meta_prefix_without_description(self):
        schema = TableSchema(
            meta=TableMeta(table_title="Demographics"),
            columns=SCHEMA.columns,
            entity_column="id",
        )
        out = serialize_row(schema, make_row(), config(meta=True))
        assert out == "Demographics: age is 50; gender is female."

    def test_all_missing_excluded_meta_off(self):
        out = serialize_row(
            SCHEMA,
            make_row(missing=("age", "gender")),
            config(MissingPolicy.EXCLUDE),
        )
        assert out == ""

    def test_all_missing_excluded_meta_on_prefix_alone(self):
        out = serialize_row(
            SCHEMA,
            make_row(missing=("age", "gender")),
            config(MissingPolicy.EXCLUDE, meta=True),
        )
        assert out == "Demographics: patient background table."

    def test_entity_column_never_serialized(self):
        out = serialize_row(SCHEMA, make_row(), config())
        assert "p1" not in out

    def test_time_column_never_serialized(self):
        schema = TableSchema(
            meta=TableMeta(),
            columns=(
                ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
                ColumnSpec(name="t", kind=ColumnKind.TIMESTAMP),
                ColumnSpec(name="hr", kind=ColumnKind.NUMERIC),
            ),
            entity_column="id",
            time_column="t",
        )
        from tabtext.data_model import Row

        row = Row(
            entity_id="p1",
            cells=(CellValue.present("80"),),
            timestamp=3.5,
        )
        assert serialize_row(schema, row, config()) == "hr is 80."


def test_golden_sentences_byte_exact(tmp_path):
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_sentences.json").read_text()
    )
    rows = golden_rows(tmp_path)
    for key, cfg in golden_configs():
        produced = [serialize_row(GOLDEN_SCHEMA, row, cfg) for row in rows]
        assert produced == golden[key], f"mismatch at grid point {key}"


def _is_subsequence(needle: str, haystack: str) -> bool:
    it = iter(haystack)
    return all(ch in it for ch in needle)


@st.composite
def rows(draw):
    age = draw(st.one_of(st.none(), st.integers(0, 120).map(str)))
    gender = draw(st.one_of(st.none(), st.sampled_from(["female", "male"])))
    missing = tuple(
        name for name, v in (("age", age), ("gender", gender)) if v is None
    )
    return make_row(age=age or "0", gender=gender or "x", missing=missing)


class TestProperties:
    @given(rows(), st.sampled_from(list(MissingPolicy)), st.booleans(), st.booleans())
    def test_determinism(self, row, policy, meta, descriptive):
        cfg = config(policy, meta, descriptive)
        assert serialize_row(SCHEMA, row, cfg) == serialize_row(SCHEMA, row, cfg)

    @given(st.sampled_from(list(MissingPolicy)), st.sampled_from(list(MissingPolicy)))
    def test_policy_isolation_without_missing_cells(self, p1, p2):
        row = make_row()
        assert serialize_row(SCHEMA, row, config(p1)) == serialize_row(SCHEMA, row, config(p2))

    @given(rows(), st.sampled_from(list(MissingPolicy)))
    def test_meta_isolation(self, row, policy):
        without = serialize_row(SCHEMA, row, config(policy, meta=False))
        with_meta = serialize_row(SCHEMA, row, config(policy, meta=True))
        assert with_meta.endswith(without)

    @given(rows())
    def test_exclude_is_subsequence_of_encode_missing(self, row):
        excluded = serialize_row(SCHEMA, row, config(MissingPolicy.EXCLUDE))
        encoded = serialize_row(SCHEMA, row, config(MissingPolicy.ENCODE_MISSING))
        assert _is_subsequence(excluded, encoded)

    def test_column_order_is_schema_order(self):
        out = serialize_row(SCHEMA, make_row(), config())
        assert out.index("age") < out.index("gender")
