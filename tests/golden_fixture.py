"""Shared fixture for the serialization golden tests.

The 10-row table covers every column kind, missing tokens of different
shapes ("", "NA", "NaN", "null"), units, and descriptive templates, so the
16-point config grid exercises every serialization path.
"""
from tabtext.data_model import (
    ColumnKind,
    ColumnSpec,
    TableMeta,
    TableSchema,
    parse_table,
)
from tabtext.serializer import MissingPolicy, SerializationConfig

GOLDEN_SCHEMA = TableSchema(
    meta=TableMeta(
        table_title="Demographics",
        description="patient background table",
    ),
    columns=(
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(
            name="age",
            kind=ColumnKind.NUMERIC,
            unit="years",
            descriptive_template="The patient is {value} years old",
        ),
        ColumnSpec(name="gender", kind=ColumnKind.BINARY),
        ColumnSpec(
            name="bmi",
            kind=ColumnKind.NUMERIC,
            descriptive_template="The body mass index is {value}",
        ),
        ColumnSpec(name="diagnosis", kind=ColumnKind.FREE_TEXT, label="admission diagnosis"),
    ),
    entity_column="id",
)

GOLDEN_CSV = """id,age,gender,bmi,diagnosis
p01,50,female,22.5,septic shock
p02,NaN,male,27.1,stable recovery
p03,61,,NA,cardiac arrest
p04,44,female,null,minor sprain
p05,,male,31.0,
p06,73,female,24.9,acute respiratory failure
p07,NA,NaN,NaN,NaN
p08,58,male,19.8,routine observation
p09,39,female,,severe hemorrhage
p10,null,null,null,null
"""


def golden_rows(directory):
    """The rows of GOLDEN_CSV, written to a file in ``directory``."""
    path = directory / "golden.csv"
    path.write_bytes(GOLDEN_CSV.encode("utf-8"))
    return parse_table(path, GOLDEN_SCHEMA)


def golden_configs():
    """The 16 grid points in a stable order, with stable string keys."""
    points = []
    for policy in MissingPolicy:
        for meta in (True, False):
            for descriptive in (True, False):
                config = SerializationConfig(
                    missing_policy=policy,
                    include_meta=meta,
                    descriptive=descriptive,
                )
                key = f"{policy.value}|meta={meta}|descriptive={descriptive}"
                points.append((key, config))
    return points
