"""The benchmark times each layer through wrapped names (``perfbench/spans.py``):
a refactor that drops a wrapped name, or stops calling one, would make its
layer read 0 there and look like a gain. This guard runs ``compare`` in
process under the benchmark's own tracer and requires every span that the
compare-2k workload requires."""
import contextlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402
import tabtext.pipeline  # noqa: E402
from tabtext.cli import main  # noqa: E402
from tabtext.embedding import embed_text  # noqa: E402


def test_compare_records_every_span_of_the_compare_workload(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--seed", "0", "--n-entities", "150"]) == 0
    config = run.write_config(corpus, tmp_path / "out", tmp_path / "config.json",
                              {"backend": "hashing"})
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        tracer.new_op()
        root = tracer.begin("cli.main")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["compare", "--config", str(config)])
        finally:
            tracer.end(root)
    finally:
        tracer.restore()
    assert code == 0
    assert tabtext.pipeline.embed_text is embed_text
    recorded = {span[spans.NAME] for span in tracer.spans}
    assert sorted(set(run.WORKLOADS["compare-2k"].spans) - recorded) == []
