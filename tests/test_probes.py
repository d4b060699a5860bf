"""The benchmark times each layer through wrapped names (``perfbench/spans.py``):
a refactor that drops a wrapped name, or stops calling one, would make its
layer read 0 there and look like a gain. These guards run ``compare``, and
``ablate`` with a disk cache, in process under the benchmark's own tracer and
require every span that the compare-2k and remote-ablate-40 workloads require
(less the remote backend's, since no service runs here)."""
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


def traced_main(argv):
    """The exit code of ``main(argv)`` run under the tracer, and the names of
    the spans it recorded."""
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        tracer.new_op()
        root = tracer.begin("cli.main")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            tracer.end(root)
    finally:
        tracer.restore()
    assert tabtext.pipeline.embed_text is embed_text
    return code, {span[spans.NAME] for span in tracer.spans}


def test_compare_records_every_span_of_the_compare_workload(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--seed", "0", "--n-entities", "150"]) == 0
    config = run.write_config(corpus, tmp_path / "out", tmp_path / "config.json",
                              {"backend": "hashing"})
    code, recorded = traced_main(["compare", "--config", str(config)])
    assert code == 0
    assert sorted(set(run.WORKLOADS["compare-2k"].spans) - recorded) == []


def test_ablate_records_every_span_of_the_ablate_workload(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--seed", "0", "--n-entities", "40",
                 "--positive-rate", "0.3"]) == 0
    config = run.write_config(corpus, tmp_path / "out", tmp_path / "config.json",
                              {"backend": "hashing", "dim": 64, "cache": str(tmp_path / "cache")})
    code, recorded = traced_main(["ablate", "--config", str(config)])
    assert code == 0
    expected = set(run.WORKLOADS["remote-ablate-40"].spans) - {"embedding.remote"}
    assert "embedding.cache" in expected and "evaluation.run_ablation" in expected
    assert sorted(expected - recorded) == []
