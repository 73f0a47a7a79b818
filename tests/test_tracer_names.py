"""The benchmark's tracer (bench/spans.py) wraps package functions by
the names their callers look them up under; a rename must fail here,
not in the first traced benchmark run."""
from pathlib import Path

from categraph import cli, evaluate, fileio, graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_every_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = (cli.main, cli.synthetic_graph, evaluate.sample_rw,
              fileio.load_trace, graph.Graph.__dict__["is_connected"])
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli.main is not before[0]
    finally:
        tracer.restore()
    assert (cli.main, cli.synthetic_graph, evaluate.sample_rw,
            fileio.load_trace, graph.Graph.__dict__["is_connected"]) == before
