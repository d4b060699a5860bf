import itertools

import pytest

from tabtext.data_model import parse_table


@pytest.fixture
def parse_text(tmp_path):
    """parse_table of ``text`` written, byte for byte, to a new file under
    tmp_path."""
    paths = (tmp_path / f"table{i}.csv" for i in itertools.count())

    def parse(text, schema):
        path = next(paths)
        path.write_bytes(text.encode("utf-8"))
        return parse_table(path, schema)

    return parse
